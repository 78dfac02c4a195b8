"""Property tests over small random inputs (Hypothesis)."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cardiofuse.models import MODEL_KINDS, ProbabilisticClassifier, make_model

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
