import numpy as np
import pytest

from cardiofuse.dataset import (AttributeSpec, DataTable, ParseError,
                                SchemaViolation, SummaryError,
                                bundled_data_path, cleveland_schema, load_csv,
                                load_schema_file, summarize)

FULL_ROW = "63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,0.0,6.0,0"
ROW_MISSING_CA = "63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,?,6.0,0"


@pytest.fixture(scope="module")
def cleveland():
    return load_csv(bundled_data_path())


def test_cleveland_has_303_rows_13_columns(cleveland):
    assert cleveland.n_rows == 303
    assert cleveland.n_cols == 13
    assert set(np.unique(cleveland.labels)) <= {0, 1, 2, 3, 4}


def test_single_full_row(tmp_path):
    f = tmp_path / "one.data"
    f.write_text(FULL_ROW + "\n")
    t = load_csv(f)
    assert t.n_rows == 1
    assert not np.isnan(t.rows).any()


def test_missing_ca_cell(tmp_path):
    # oracle: count the fields directly
    assert ROW_MISSING_CA.split(",").index("?") == 11
    f = tmp_path / "row.data"
    f.write_text(ROW_MISSING_CA + "\n")
    t = load_csv(f)
    assert np.isnan(t.rows).sum() == 1
    assert np.isnan(t.rows[0, t.column("Ca")])


def test_wrong_field_count_names_row(tmp_path):
    f = tmp_path / "bad.data"
    f.write_text(FULL_ROW + "\n" + "1.0,2.0,3.0\n")
    with pytest.raises(ParseError, match="row 2"):
        load_csv(f)


def test_non_numeric_names_row_and_column(tmp_path):
    parts = FULL_ROW.split(",")
    parts[4] = "abc"
    f = tmp_path / "bad.data"
    f.write_text(",".join(parts) + "\n")
    with pytest.raises(ParseError, match="row 1.*S_chol"):
        load_csv(f)


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "1e400"])
def test_non_finite_feature_token_rejected(tmp_path, token):
    # only '?' may become NaN, so a NaN cell always means a missing one
    parts = FULL_ROW.split(",")
    parts[4] = token
    f = tmp_path / "bad.data"
    f.write_text(",".join(parts) + "\n")
    with pytest.raises(ParseError, match="row 1, column S_chol: non-finite"):
        load_csv(f)


@pytest.mark.parametrize("field, token, message", [
    (4, "abc", "row 1, column S_chol: non-numeric value 'abc'"),
    (4, "inf", "row 1, column S_chol: non-finite value 'inf'"),
    (13, "abc", "row 1, label: non-numeric value 'abc'"),
    (13, "nan", "row 1, label: non-finite value 'nan'"),
])
def test_bad_number_message_names_the_cell(tmp_path, field, token, message):
    parts = FULL_ROW.split(",")
    parts[field] = token
    f = tmp_path / "bad.data"
    f.write_text(",".join(parts) + "\n")
    with pytest.raises(ParseError) as caught:
        load_csv(f)
    assert str(caught.value) == message


def test_unknown_category_code_rejected(tmp_path):
    parts = FULL_ROW.split(",")
    parts[12] = "5.0"  # Thal allows only {3, 6, 7}
    f = tmp_path / "bad.data"
    f.write_text(",".join(parts) + "\n")
    with pytest.raises(SchemaViolation, match="Thal"):
        load_csv(f)


def test_labels_parse_from_float_form(tmp_path):
    f = tmp_path / "f.data"
    f.write_text(FULL_ROW.rsplit(",", 1)[0] + ",2.0\n")
    t = load_csv(f)
    assert t.labels[0] == 2


def test_header_tolerated_with_flag(tmp_path):
    f = tmp_path / "h.data"
    f.write_text("age,sex,cp,bp,chol,fbs,re,hr,ex,old,sl,ca,thal,label\n" + FULL_ROW + "\n")
    with pytest.raises(ParseError):
        load_csv(f)
    t = load_csv(f, has_header=True)
    assert t.n_rows == 1


def test_load_is_deterministic():
    a = load_csv(bundled_data_path())
    b = load_csv(bundled_data_path())
    assert np.array_equal(a.rows, b.rows, equal_nan=True)
    assert np.array_equal(a.labels, b.labels)


def test_missing_cells_only_in_ca_and_thal(cleveland):
    # brute-force oracle: scan the raw file text
    raw = bundled_data_path().read_text().strip().splitlines()
    positions = [(i, j) for i, line in enumerate(raw)
                 for j, tok in enumerate(line.split(",")) if tok == "?"]
    assert len(positions) == 6
    ca, thal = cleveland.column("Ca"), cleveland.column("Thal")
    assert all(j in (ca, thal) for _, j in positions)
    got = {(i, j) for i, j in zip(*np.nonzero(np.isnan(cleveland.rows)))}
    assert got == set(positions)


def test_summarize_matches_published_statistics(cleveland):
    """Check the bundled file against the precise published summary values.

    These are the long-form means and (population) standard deviations of
    the processed Cleveland table, not the coarsely rounded ones that
    appear in most writeups.
    """
    stats = summarize(cleveland)
    expected = {"Age": (54.4389, 9.02), "Thstbps": (131.6898, 17.57),
                "S_chol": (246.6931, 51.69), "thlach": (149.6073, 22.84),
                "Oldpeak": (1.0396, 1.159)}
    for name, (mean, std) in expected.items():
        assert stats[name]["mean"] == pytest.approx(mean, abs=0.1)
        assert stats[name]["std"] == pytest.approx(std, abs=0.15)


def test_summarize_single_row_has_zero_std(tmp_path):
    f = tmp_path / "one.data"
    f.write_text(FULL_ROW + "\n")
    stats = summarize(load_csv(f))
    for attr in cleveland_schema():
        if attr.kind == "continuous":
            assert stats[attr.name]["std"] == 0.0


def test_summarize_simple_mean():
    schema = [AttributeSpec("x", "continuous")]
    t = DataTable(np.array([[1.0], [2.0], [3.0]]), np.array([0, 0, 0]), schema)
    assert summarize(t)["x"]["mean"] == pytest.approx(2.0)


def test_summarize_fully_missing_column_errors():
    schema = [AttributeSpec("x", "continuous")]
    rows = np.array([[np.nan], [np.nan]])
    t = DataTable(rows, np.array([0, 0]), schema)
    with pytest.raises(SummaryError, match="x"):
        summarize(t)


def test_summarize_categorical_frequencies(cleveland):
    stats = summarize(cleveland)
    sexes = stats["Sex"]["frequencies"]
    assert sexes[1.0] == pytest.approx(100 * 206 / 303, abs=0.01)
    assert sexes[0.0] == pytest.approx(100 * 97 / 303, abs=0.01)


def test_full_categorical_distribution(cleveland):
    """Pin the published per-code counts of every categorical column."""
    expected = {
        "Sex": {0: 97, 1: 206},
        "Cpt": {1: 23, 2: 50, 3: 86, 4: 144},
        "FBS": {0: 258, 1: 45},
        "Restelect": {0: 151, 1: 4, 2: 148},
        "Exng": {0: 204, 1: 99},
        "Slp": {1: 142, 2: 140, 3: 21},
        "Ca": {0: 176, 1: 65, 2: 38, 3: 20},
        "Thal": {3: 166, 6: 18, 7: 117},
    }
    for name, counts in expected.items():
        j = cleveland.column(name)
        col = cleveland.rows[~np.isnan(cleveland.rows[:, j]), j]
        got = {int(v): int(c) for v, c in zip(*np.unique(col, return_counts=True))}
        assert got == counts, name
    labels = {i: int(c) for i, c in enumerate(np.bincount(cleveland.labels))}
    assert labels == {0: 164, 1: 55, 2: 36, 3: 35, 4: 13}


def test_schema_invariants():
    with pytest.raises(ValueError):
        AttributeSpec("x", "categorical")  # needs allowed codes
    with pytest.raises(ValueError):
        AttributeSpec("x", "nominal")
    dup = cleveland_schema()
    dup[1] = AttributeSpec("Age", "continuous")
    with pytest.raises(ValueError, match="duplicate"):
        DataTable(np.zeros((1, 13)), np.array([0]), dup)


def test_schema_file_round_trip(tmp_path):
    import json
    doc = [{"name": "a", "kind": "continuous"},
           {"name": "b", "kind": "categorical", "allowed_values": [0, 1]}]
    p = tmp_path / "schema.json"
    p.write_text(json.dumps(doc))
    schema = load_schema_file(p)
    assert schema[0].kind == "continuous"
    assert schema[1].allowed_values == frozenset({0.0, 1.0})
