import collections

import numpy as np
import pytest

from cardiofuse.dataset import AttributeSpec, DataTable, bundled_data_path, load_csv
from cardiofuse.preprocess import (ImputationError, PreprocessError,
                                   ResampleError, ScalerUsageError, SplitSpec,
                                   TaskKind, apply_scaler, derive_task,
                                   encode_labels, fit_scaler,
                                   impute_most_frequent, random_oversample,
                                   split)


def one_column_table(values, labels=None):
    vals = np.array(values, dtype=float).reshape(-1, 1)
    labels = np.zeros(len(vals), dtype=int) if labels is None else np.array(labels)
    return DataTable(vals, labels, [AttributeSpec("x", "continuous")])


def feature_table(rows, labels):
    rows = np.asarray(rows, dtype=float)
    schema = [AttributeSpec(f"f{i}", "continuous") for i in range(rows.shape[1])]
    return DataTable(rows, np.asarray(labels), schema)


@pytest.fixture(scope="module")
def cleveland():
    return load_csv(bundled_data_path())


# impute ---------------------------------------------------------------------

def test_impute_mode():
    t = one_column_table([3, 3, np.nan, 7])
    out = impute_most_frequent(t)
    assert out.rows[:, 0].tolist() == [3, 3, 3, 7]
    assert not out.missing_mask.any()


def test_impute_tie_breaks_to_smallest():
    # oracle: enumerate the counts; 1 and 2 tie, smallest wins
    counts = collections.Counter([1, 1, 2, 2])
    top = max(counts.values())
    assert min(v for v, c in counts.items() if c == top) == 1
    out = impute_most_frequent(one_column_table([1, 1, 2, 2, np.nan]))
    assert out.rows[-1, 0] == 1


def test_impute_cleveland_clears_all_missing(cleveland):
    out = impute_most_frequent(cleveland)
    assert out.missing_mask.sum() == 0
    assert out.n_rows == 303
    # non-missing cells unchanged
    keep = ~cleveland.missing_mask
    assert np.array_equal(out.rows[keep], cleveland.rows[keep])


def test_impute_fully_missing_column_errors():
    t = one_column_table([np.nan, np.nan])
    with pytest.raises(ImputationError, match="x"):
        impute_most_frequent(t)


# encode ---------------------------------------------------------------------

def test_encode_thal_codes(cleveland):
    t, maps = encode_labels(impute_most_frequent(cleveland))
    assert maps["Thal"] == {3.0: 0, 6.0: 1, 7.0: 2}
    assert maps["Cpt"] == {1.0: 0, 2.0: 1, 3.0: 2, 4.0: 3}
    assert maps["Sex"] == {0.0: 0, 1.0: 1}  # already 0-based, identity
    j = t.column("Thal")
    assert set(np.unique(t.rows[:, j])) == {0.0, 1.0, 2.0}


def test_encode_requires_imputed(cleveland):
    with pytest.raises(PreprocessError):
        encode_labels(cleveland)


# scalers --------------------------------------------------------------------

def test_zscore_definition():
    params = fit_scaler(np.array([[1.0], [2.0], [3.0]]), "zscore")
    out = apply_scaler(params, np.array([[1.0], [2.0], [3.0]]))
    assert abs(out.mean()) < 1e-12
    assert abs(out.std() - 1.0) < 1e-12  # population convention
    # a sample at the training mean maps to zero
    assert apply_scaler(params, np.array([[2.0]]))[0, 0] == 0.0


def test_minmax_definition():
    params = fit_scaler(np.array([[10.0], [20.0], [30.0]]), "minmax")
    out = apply_scaler(params, np.array([[10.0], [20.0], [30.0]]))
    assert out[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_degenerate_columns_map_to_zero():
    X = np.array([[5.0, 1.0], [5.0, 2.0]])
    for kind in ("zscore", "minmax"):
        params = fit_scaler(X, kind)
        out = apply_scaler(params, X)
        assert (out[:, 0] == 0.0).all()


def test_unfitted_scaler_rejected():
    from cardiofuse.preprocess import ScalerParams
    with pytest.raises(ScalerUsageError):
        apply_scaler(ScalerParams("zscore"), np.zeros((1, 1)))


def test_scaler_invariants_on_cleveland(cleveland):
    t, _ = encode_labels(impute_most_frequent(cleveland))
    train, _ = split(t, SplitSpec(0.2, seed=5))
    z = apply_scaler(fit_scaler(train.rows, "zscore"), train.rows)
    assert np.abs(z.mean(axis=0)).max() < 1e-9
    assert np.abs(z.std(axis=0) - 1.0).max() < 1e-9
    m = apply_scaler(fit_scaler(train.rows, "minmax"), train.rows)
    assert m.min() >= 0.0 and m.max() <= 1.0


# task derivation ------------------------------------------------------------

def test_derive_task_binary_collapses_severity(cleveland):
    t = derive_task(cleveland, TaskKind("binary"))
    assert set(np.unique(t.labels)) <= {0, 1}
    # severity 3 -> 1, absence preserved
    assert t.labels[cleveland.labels == 3].tolist() == [1] * (cleveland.labels == 3).sum()
    assert t.labels[cleveland.labels == 0].tolist() == [0] * (cleveland.labels == 0).sum()
    assert (t.labels == 1).sum() == (cleveland.labels > 0).sum()


def test_derive_task_multiclass_identity(cleveland):
    t = derive_task(cleveland, TaskKind("multiclass"))
    assert np.array_equal(t.labels, cleveland.labels)


# split ----------------------------------------------------------------------

def test_split_sizes_match_paper(cleveland):
    for frac, expect in ((0.2, 61), (0.3, 91)):
        train, test = split(cleveland, SplitSpec(frac, seed=0))
        assert test.n_rows == expect
        assert train.n_rows == 303 - expect


def test_split_deterministic_and_partitioning(cleveland):
    a_train, a_test = split(cleveland, SplitSpec(0.3, seed=42))
    b_train, b_test = split(cleveland, SplitSpec(0.3, seed=42))
    assert np.array_equal(a_train.rows, b_train.rows, equal_nan=True)
    assert np.array_equal(a_test.rows, b_test.rows, equal_nan=True)
    # disjoint and exhaustive
    key = lambda t: sorted(map(tuple, np.nan_to_num(t.rows, nan=-1).tolist()))
    merged = key(a_train) + key(a_test)
    assert sorted(merged) == key(cleveland)


def test_split_stratification_within_one_sample(cleveland):
    t = derive_task(cleveland, TaskKind("multiclass"))
    train, test = split(t, SplitSpec(0.2, seed=7))
    for c in range(5):
        total = (t.labels == c).sum()
        got = (test.labels == c).sum()
        assert abs(got - total * 0.2) <= 1.0


@pytest.mark.parametrize("n", [0, 1])
def test_split_rejects_fewer_than_two_rows(n):
    t = one_column_table(np.arange(n, dtype=float))
    with pytest.raises(PreprocessError, match=f"{n} row"):
        split(t, SplitSpec(0.2, seed=0))


def test_split_falls_back_when_class_too_small():
    rows = np.arange(10, dtype=float).reshape(-1, 1)
    t = one_column_table(rows, labels=[0] * 9 + [1])
    with pytest.warns(UserWarning, match="stratify"):
        split(t, SplitSpec(0.2, seed=0, stratified=True))


# oversample -----------------------------------------------------------------

def test_oversample_balances_counts():
    counts = {0: 100, 1: 40, 2: 25, 3: 25, 4: 10}
    labels = np.concatenate([np.full(n, c) for c, n in counts.items()])
    rows = np.arange(len(labels), dtype=float).reshape(-1, 1)
    t = one_column_table(rows, labels=labels)
    out = random_oversample(t, seed=3)
    # oracle: count the labels after resampling
    got = collections.Counter(out.labels.tolist())
    assert got == {c: 100 for c in range(5)}
    assert out.n_rows == 500


def test_oversample_balanced_input_unchanged():
    t = one_column_table(np.arange(10, dtype=float), labels=[0] * 5 + [1] * 5)
    out = random_oversample(t, seed=0)
    assert np.array_equal(out.rows, t.rows)


def test_oversample_keeps_originals_and_is_deterministic():
    t = one_column_table(np.arange(30, dtype=float), labels=[0] * 20 + [1] * 10)
    a = random_oversample(t, seed=9)
    b = random_oversample(t, seed=9)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.rows[:30], t.rows)  # originals kept as prefix
    # added rows are exact copies of minority rows
    minority = set(t.rows[t.labels == 1][:, 0].tolist())
    assert set(a.rows[30:, 0].tolist()) <= minority
    assert (a.labels[30:] == 1).all()


def test_oversample_empty_table_errors():
    t = one_column_table(np.zeros((0,)), labels=[])
    with pytest.raises(ResampleError):
        random_oversample(t, seed=0)
