"""Ingestion and validation of the Cleveland heart-disease table.

The canonical file is plain comma-separated text with one record per line:
13 feature fields followed by an integer disease label (0 = no disease,
1-4 = increasing severity). Missing cells are marked with ``?``. There is
no header row, although one is tolerated via ``has_header=True``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np


class DataError(Exception):
    """Base class for ingestion failures."""


class ParseError(DataError):
    """A record could not be parsed (bad field count or non-numeric value)."""


class SchemaViolation(DataError):
    """A parsed value is not permitted by the column's schema."""


class SummaryError(DataError):
    """A column cannot be summarized (e.g. entirely missing)."""


@dataclass(frozen=True)
class AttributeSpec:
    """Schema entry for a single feature column."""

    name: str
    kind: str  # "continuous" | "categorical"
    allowed_values: frozenset[float] = frozenset()
    description: str = ""

    def __post_init__(self):
        if self.kind not in ("continuous", "categorical"):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.kind == "categorical" and not self.allowed_values:
            raise ValueError(f"categorical attribute {self.name!r} needs allowed_values")


def cleveland_schema() -> list[AttributeSpec]:
    """Schema of the 13-attribute processed Cleveland file, in file column order."""
    cat = "categorical"
    cont = "continuous"
    return [
        AttributeSpec("Age", cont, description="age in years"),
        AttributeSpec("Sex", cat, frozenset({0.0, 1.0}), "1 male, 0 female"),
        AttributeSpec("Cpt", cat, frozenset({1.0, 2.0, 3.0, 4.0}), "chest pain type"),
        AttributeSpec("Thstbps", cont, description="resting blood pressure (mm Hg)"),
        AttributeSpec("S_chol", cont, description="serum cholesterol (mg/dl)"),
        AttributeSpec("FBS", cat, frozenset({0.0, 1.0}), "fasting blood sugar > 120"),
        AttributeSpec("Restelect", cat, frozenset({0.0, 1.0, 2.0}), "resting ECG result"),
        AttributeSpec("thlach", cont, description="maximum heart rate achieved"),
        AttributeSpec("Exng", cat, frozenset({0.0, 1.0}), "exercise-induced angina"),
        AttributeSpec("Oldpeak", cont, description="exercise ST depression"),
        AttributeSpec("Slp", cat, frozenset({1.0, 2.0, 3.0}), "slope of peak ST segment"),
        AttributeSpec("Ca", cat, frozenset({0.0, 1.0, 2.0, 3.0}), "major vessels colored"),
        AttributeSpec("Thal", cat, frozenset({3.0, 6.0, 7.0}), "thalassemia status"),
    ]


VALID_LABELS = frozenset({0, 1, 2, 3, 4})


@dataclass
class DataTable:
    """Rectangular feature matrix with labels and schema.

    A missing cell holds NaN in ``rows``, and NaN marks nothing else.
    Instances are treated as read-only once constructed.
    """

    rows: np.ndarray          # (n, d) float64
    labels: np.ndarray        # (n,) int64
    schema: list[AttributeSpec] = field(default_factory=cleveland_schema)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n, d = self.rows.shape
        if d != len(self.schema):
            raise ValueError(f"rows have {d} columns, schema has {len(self.schema)}")
        if len(self.labels) != n:
            raise ValueError(f"{len(self.labels)} labels for {n} rows")
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names in schema")
        bad = set(np.unique(self.labels)) - VALID_LABELS
        if bad:
            raise SchemaViolation(f"labels outside {sorted(VALID_LABELS)}: {sorted(bad)}")

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_cols(self) -> int:
        return self.rows.shape[1]

    def column(self, name: str) -> int:
        for j, a in enumerate(self.schema):
            if a.name == name:
                return j
        raise KeyError(name)

    def replace(self, rows=None, labels=None) -> "DataTable":
        """Copy of this table with selected parts swapped out."""
        return DataTable(
            rows=self.rows if rows is None else rows,
            labels=self.labels if labels is None else labels,
            schema=self.schema,
        )

    def take(self, idx) -> "DataTable":
        idx = np.asarray(idx)
        return DataTable(self.rows[idx], self.labels[idx], self.schema)


def bundled_data_path():
    """Path to the packaged 303-row processed Cleveland file."""
    return resources.files("cardiofuse").joinpath("data/processed.cleveland.data")


def load_csv(path, schema: list[AttributeSpec] | None = None,
             has_header: bool = False) -> DataTable:
    """Parse a Cleveland-format file into a schema-checked DataTable.

    A ``?`` cell becomes NaN; any other non-finite token is a ParseError.
    Raises ParseError for malformed records (with the 1-based row index) and
    SchemaViolation when a categorical cell holds a code the schema does not
    allow. Labels are parsed as floats and truncated toward zero, since some
    mirrors store them as "0.0".
    """
    if schema is None:
        schema = cleveland_schema()
    d = len(schema)

    text = _read_text(path)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if has_header and lines:
        lines = lines[1:]

    rows, labels = [], []
    for i, line in enumerate(lines, start=1):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != d + 1:
            raise ParseError(f"row {i}: expected {d + 1} fields, got {len(parts)}")
        vec = []
        for tok, attr in zip(parts[:-1], schema):
            if tok == "?":
                vec.append(np.nan)
                continue
            try:
                val = float(tok)
            except ValueError:
                raise ParseError(f"row {i}, column {attr.name}: non-numeric value {tok!r}") from None
            if not math.isfinite(val):
                raise ParseError(f"row {i}, column {attr.name}: non-finite value {tok!r}")
            if attr.kind == "categorical" and val not in attr.allowed_values:
                raise SchemaViolation(
                    f"row {i}, column {attr.name}: code {tok} not in "
                    f"{sorted(attr.allowed_values)}")
            vec.append(val)
        tok = parts[-1]
        try:
            lab = float(tok)
        except ValueError:
            raise ParseError(f"row {i}, label: non-numeric value {tok!r}") from None
        if not math.isfinite(lab):
            raise ParseError(f"row {i}, label: non-finite value {tok!r}")
        lab = int(lab)  # truncates toward zero
        if lab not in VALID_LABELS:
            raise SchemaViolation(f"row {i}: label {lab} outside {sorted(VALID_LABELS)}")
        rows.append(vec)
        labels.append(lab)

    if not rows:
        raise ParseError("no records found")
    return DataTable(np.array(rows), np.array(labels), schema)


def _read_text(path) -> str:
    # accept both filesystem paths and importlib.resources traversables
    if hasattr(path, "read_text"):
        return path.read_text()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def summarize(table: DataTable) -> dict:
    """Per-column summary: mean/std for continuous, code percentages otherwise.

    Standard deviations are population (divide by n). Statistics cover
    non-missing cells only; a fully missing column raises SummaryError.
    """
    if table.n_rows == 0:
        raise SummaryError("empty table")
    out = {}
    for j, attr in enumerate(table.schema):
        col = table.rows[:, j]
        ok = ~np.isnan(col)
        if not ok.any():
            raise SummaryError(f"column {attr.name} is entirely missing")
        vals = col[ok]
        if attr.kind == "continuous":
            out[attr.name] = {
                "mean": float(vals.mean()),
                "std": float(vals.std()),  # population convention
                "missing": int((~ok).sum()),
            }
        else:
            codes, counts = np.unique(vals, return_counts=True)
            pct = {float(c): 100.0 * k / len(vals) for c, k in zip(codes, counts)}
            out[attr.name] = {"frequencies": pct, "missing": int((~ok).sum())}
    counts = np.bincount(table.labels, minlength=5)
    out["label"] = {"counts": {i: int(c) for i, c in enumerate(counts)}}
    return out


def load_schema_file(path) -> list[AttributeSpec]:
    """Read a JSON schema document: a list of {name, kind, allowed_values, description}."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    schema = []
    for entry in doc:
        schema.append(AttributeSpec(
            name=entry["name"],
            kind=entry["kind"],
            allowed_values=frozenset(float(v) for v in entry.get("allowed_values", [])),
            description=entry.get("description", ""),
        ))
    return schema
