"""Property tests over small random inputs (Hypothesis)."""

import json
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardiofuse.dataset import (DataTable, ParseError, SchemaViolation, bundled_data_path,
                                cleveland_schema, load_csv)
from cardiofuse.fusion import decide, fuse, grid_search, weight_grid
from cardiofuse.metrics import confusion, roc_auc
from cardiofuse.models import MODEL_KINDS, ProbabilisticClassifier, make_model
from cardiofuse.preprocess import SplitSpec, random_oversample, split

# small settings so that each example fits in milliseconds
_SMALL = {
    "LR": {"max_iter": 200},
    "SVM": {"gamma": 0.5},
    "DT": {"max_features": 3, "min_samples_leaf": 1, "seed": 3},
    "RF": {"n_estimators": 4, "seed": 3},
    "ANN": {"epochs": 2, "seed": 3},
    "ADA": {"n_estimators": 6, "learning_rate": 0.5},
}


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(MODEL_KINDS), seed=st.integers(0, 2**32 - 1),
       n=st.integers(2, 30), d=st.integers(1, 5), k=st.integers(2, 4), ties=st.booleans())
def test_document_round_trip_reproduces_scores_exactly(kind, seed, n, d, k, ties):
    k = 2 if kind == "ADA" else k
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if ties:
        X = np.round(X)
    y = rng.integers(0, k, n)
    model = make_model(kind, **_SMALL[kind]).fit(X, y)
    clone = ProbabilisticClassifier.from_dict(json.loads(json.dumps(model.to_dict())))
    Xq = np.vstack([X, rng.normal(size=(5, d))])
    assert np.array_equal(clone.predict_proba(Xq), model.predict_proba(Xq))


def _id_table(labels):
    """A table whose first column holds each row's index, so rows can be traced."""
    n, d = len(labels), len(cleveland_schema())
    rows = np.zeros((n, d))
    rows[:, 0] = np.arange(n)
    return DataTable(rows, np.asarray(labels, dtype=np.int64))


_labels = st.lists(st.integers(0, 4), min_size=2, max_size=40)


@settings(max_examples=100, deadline=None)
@given(labels=_labels, test_fraction=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1),
       stratified=st.booleans())
def test_split_partitions_the_table_deterministically(labels, test_fraction, seed, stratified):
    table = _id_table(labels)
    spec = SplitSpec(test_fraction, seed, stratified)
    with warnings.catch_warnings():
        # an unstratifiable table falls back to a random split with a warning
        warnings.simplefilter("ignore", UserWarning)
        train, test = split(table, spec)
        again = split(table, spec)
    ids_train, ids_test = train.rows[:, 0], test.rows[:, 0]
    assert train.n_rows + test.n_rows == table.n_rows
    assert train.n_rows >= 1 and test.n_rows >= 1
    assert not set(ids_train) & set(ids_test)
    assert sorted(np.concatenate([ids_train, ids_test])) == list(range(table.n_rows))
    # every row keeps its label
    ids = np.concatenate([ids_train, ids_test]).astype(int)
    assert np.array_equal(np.concatenate([train.labels, test.labels]), table.labels[ids])
    assert np.array_equal(again[0].rows, train.rows) and np.array_equal(again[1].rows, test.rows)


@settings(max_examples=100, deadline=None)
@given(labels=st.lists(st.integers(0, 4), min_size=1, max_size=40),
       seed=st.integers(0, 2**32 - 1))
def test_oversample_balances_classes_and_keeps_the_input(labels, seed):
    table = _id_table(labels)
    out = random_oversample(table, seed)
    classes, counts = np.unique(table.labels, return_counts=True)
    out_classes, out_counts = np.unique(out.labels, return_counts=True)
    assert np.array_equal(out_classes, classes)
    assert (out_counts == counts.max()).all()
    # the input is a prefix; each appended copy repeats a row of its own class
    assert np.array_equal(out.rows[:table.n_rows], table.rows)
    assert np.array_equal(out.labels[:table.n_rows], table.labels)
    ids = out.rows[table.n_rows:, 0].astype(int)
    assert np.array_equal(out.labels[table.n_rows:], table.labels[ids])
    again = random_oversample(table, seed)
    assert np.array_equal(again.rows, out.rows) and np.array_equal(again.labels, out.labels)


class _Text:
    """A file stand-in: ``load_csv`` reads anything with ``read_text``."""

    def __init__(self, text):
        self.text = text

    def read_text(self):
        return self.text


_LINES = bundled_data_path().read_text().splitlines()[:6]
_TOKENS = ["", " ", "?", "abc", "1,2", "nan", "NaN", "inf", "-inf", "1e400", "-1e400", "0x1",
           "-1", "0", "0.5", "1", "2.0", "3", "4", "5", "6", "7", "9", "4.9", "-0.0", " 2 "]
_mutation = st.one_of(
    st.tuples(st.just("token"), st.integers(0, 13), st.sampled_from(_TOKENS)),
    st.tuples(st.just("token"), st.just(13), st.sampled_from(_TOKENS)),   # the label
    st.tuples(st.just("drop"), st.integers(0, 13), st.none()),
    st.tuples(st.just("insert"), st.integers(0, 14), st.sampled_from(_TOKENS)),
    st.tuples(st.just("line"), st.none(), st.sampled_from(["", "   ", "\t", ",", "?"])),
)


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, len(_LINES) - 1), _mutation), max_size=3),
       keep=st.integers(1, len(_LINES)))
@example(edits=[(0, ("token", 13, "1e400"))], keep=1)   # an infinite label
@example(edits=[(0, ("token", 4, "nan"))], keep=1)     # a NaN that is not a '?'
def test_loader_accepts_a_mutated_file_or_raises_a_data_error(edits, keep):
    lines = [line.split(",") for line in _LINES[:keep]]
    for row, (kind, j, token) in edits:
        fields = lines[row % keep]
        if kind == "token" and j < len(fields):
            fields[j] = token   # the label is field 13; categories are among 1-12
        elif kind == "drop" and j < len(fields):
            del fields[j]
        elif kind == "insert":
            fields.insert(j, token)
        elif kind == "line":
            fields[:] = [token]
    text = "\n".join(",".join(f) for f in lines)
    try:
        table = load_csv(_Text(text))
    except (ParseError, SchemaViolation):
        return
    assert 1 <= table.n_rows <= keep and table.rows.shape == (table.n_rows, 13)
    # NaN marks exactly the '?' cells; every other cell is finite
    kept = [line.split(",") for line in text.splitlines() if line.strip()]
    assert np.array_equal(np.isnan(table.rows), [[t.strip() == "?" for t in f[:-1]] for f in kept])
    assert not np.isinf(table.rows).any()


# integer-valued scores over a few values, so that tied entries are common
_seed, _k, _top = st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 4)


def _integer_scores(rng, n, k, top):
    return rng.integers(-top, top + 1, size=(n, k)).astype(np.float64)


@settings(max_examples=200, deadline=None)
@given(seed=_seed, n=st.integers(1, 40), k=_k, top=_top)
def test_decide_is_the_first_argmax(seed, n, k, top):
    scores = _integer_scores(np.random.default_rng(seed), n, k, top)
    pred = decide(scores)
    assert pred.dtype == np.int64
    assert np.array_equal(pred, np.argmax(scores, axis=1))


@settings(max_examples=200, deadline=None)
@given(seed=_seed, n=st.integers(1, 40), k=_k, top=_top)
def test_grid_search_equals_the_per_weight_loop(seed, n, k, top):
    rng = np.random.default_rng(seed)
    d1, d2 = _integer_scores(rng, n, k, top), _integer_scores(rng, n, k, top)
    truth = rng.integers(0, k, n)
    res = grid_search(d1, d2, truth)
    best, sweep = None, []
    for w in weight_grid():
        fused = fuse(d1, d2, w)
        acc = float(np.mean(np.argmax(fused.scores, axis=1) == truth))
        sweep.append((w, acc))
        if best is None or acc > best[1]:
            best = (fused, acc)
    assert res.sweep == sweep
    assert res.weights == best[0].weights and res.best_criterion == best[1]
    assert res.fused.weights == best[0].weights
    assert res.fused.scores.tobytes() == best[0].scores.tobytes()


def _roc_by_counting(truth, scores):
    """Curves and macro AUC that count the rows at or above each distinct
    score, which is what a stable sort with tie groups yields."""
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    columns = [1] if scores.shape[1] == 2 else range(scores.shape[1])
    aucs, curves = [], {}
    for c in columns:
        pos, neg = scores[truth == c, c], scores[truth != c, c]
        if len(pos) == 0 or len(neg) == 0:
            continue
        points = [(0.0, 0.0, np.inf)]
        for v in np.unique(scores[:, c])[::-1]:
            points.append((np.count_nonzero(neg >= v) / len(neg),
                           np.count_nonzero(pos >= v) / len(pos), float(v)))
        if points[-1][:2] != (1.0, 1.0):
            points.append((1.0, 1.0, -np.inf))
        fpr, tpr, _ = zip(*points)
        aucs.append(float(trapezoid(tpr, fpr)))
        curves[c] = points
    return aucs, curves


@settings(max_examples=200, deadline=None)
@given(seed=_seed, n=st.integers(2, 40), k=_k, top=_top)
def test_roc_ignores_the_order_of_tied_rows(seed, n, k, top):
    rng = np.random.default_rng(seed)
    scores = _integer_scores(rng, n, k, top)
    truth = rng.integers(0, k, n)
    truth[:2] = [0, 1]
    aucs, curves = _roc_by_counting(truth, scores)
    perm = rng.permutation(n)
    with warnings.catch_warnings():
        # classes absent from the truth are left out with a warning
        warnings.simplefilter("ignore", UserWarning)
        auc, got = roc_auc(truth, scores)
        auc_shuffled, got_shuffled = roc_auc(truth[perm], scores[perm])
    assert got == got_shuffled == curves
    assert auc == auc_shuffled == float(np.mean(aucs))


@settings(max_examples=200, deadline=None)
@given(seed=_seed, n=st.integers(1, 40), k=st.integers(1, 5))
def test_confusion_counts_every_pair(seed, n, k):
    rng = np.random.default_rng(seed)
    truth, pred = rng.integers(0, k, n), rng.integers(0, k, n)
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (truth, pred), 1)
    cm = confusion(truth, pred, k)
    assert cm.counts.dtype == np.int64 and np.array_equal(cm.counts, counts)
