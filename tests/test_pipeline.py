import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from cardiofuse import metrics, pipeline
from cardiofuse.cli import main as cli_main
from cardiofuse.dataset import bundled_data_path, load_csv
from cardiofuse.fusion import FusionWeights, decide, fuse, grid_search
from cardiofuse.hyperparams import SCALER_FOR
from cardiofuse.pipeline import (ConfigError, RunConfig, child_seed,
                                 emit_report, run_experiment,
                                 validate_against_paper)
from cardiofuse.preprocess import (SplitSpec, TaskKind, apply_scaler,
                                   derive_task, encode_labels, fit_scaler,
                                   impute_most_frequent, random_oversample,
                                   split)

from test_blas_threads import kernel_note

FAST_HP = {"RF": {"n_estimators": 10}, "ADA": {"n_estimators": 20},
           "ANN": {"epochs": 5}}


def small_config(**kwargs):
    base = dict(task="binary", test_fraction=0.2, master_seed=3,
                hyperparams=FAST_HP)
    base.update(kwargs)
    return RunConfig(**base)


def test_run_produces_member_and_fusion_reports():
    rep = run_experiment(small_config())
    assert set(rep.fusions) == {"ANN+RF", "SVM+LR", "ADA+DT"}
    assert set(rep.members) == {"ADA", "ANN", "DT", "LR", "RF", "SVM"}
    for f in rep.fusions.values():
        assert len(f["sweep"]) == 19
        assert 0 <= f["report"].metrics["accuracy"] <= 100


def test_multiclass_uses_weighted_averaging():
    cfg = small_config(task="multiclass", fusion_pairs=[("LR", "RF")])
    rep = run_experiment(cfg)
    assert rep.members["LR"].averaging_mode == "weighted"
    assert rep.fusions["LR+RF"]["report"].averaging_mode == "weighted"


def test_binary_uses_macro_averaging():
    cfg = small_config(fusion_pairs=[("LR", "RF")])
    rep = run_experiment(cfg)
    assert rep.members["LR"].averaging_mode == "macro"


def test_multiclass_rejects_dt_and_ada():
    with pytest.raises(ConfigError):
        RunConfig(task="multiclass", fusion_pairs=[("ADA", "DT")])
    with pytest.raises(ConfigError):
        RunConfig(task="multiclass", fusion_pairs=[("DT", "RF")])


def test_unknown_pair_kind_rejected():
    with pytest.raises(ConfigError):
        RunConfig(fusion_pairs=[("LR", "XGB")])


def test_empty_pair_list_rejected():
    with pytest.raises(ConfigError, match="fusion_pairs must be a list"):
        RunConfig(fusion_pairs=[])


def test_child_seeds_are_stable_and_distinct():
    assert child_seed(1, "split") == child_seed(1, "split")
    assert child_seed(1, "split") != child_seed(2, "split")
    assert child_seed(1, "train", "LR") != child_seed(1, "train", "RF")


def test_oversampler_never_touches_test_partition():
    table = load_csv(bundled_data_path())
    table = impute_most_frequent(table)
    table, _ = encode_labels(table)
    table = derive_task(table, TaskKind("multiclass"))
    train, test = split(table, SplitSpec(0.2, seed=1))
    before = hashlib.sha256(test.rows.tobytes() + test.labels.tobytes()).hexdigest()
    out = random_oversample(train, seed=2)
    after = hashlib.sha256(test.rows.tobytes() + test.labels.tobytes()).hexdigest()
    assert before == after
    counts = np.bincount(out.labels)
    assert (counts == counts.max()).all()


def test_scaler_statistics_ignore_test_rows():
    table = load_csv(bundled_data_path())
    table = impute_most_frequent(table)
    table, _ = encode_labels(table)
    train, test = split(table, SplitSpec(0.2, seed=4))
    a = fit_scaler(train.rows, "zscore")
    test.rows[0, 0] += 1000.0  # perturb a test row
    b = fit_scaler(train.rows, "zscore")
    assert np.array_equal(a.center, b.center)
    assert np.array_equal(a.scale, b.scale)


def test_reports_are_self_consistent(tmp_path):
    cfg = small_config(report_dir=str(tmp_path))
    rep = run_experiment(cfg)
    emit_report(rep, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    truth = np.array(doc["truth"])
    for name, f in doc["fusions"].items():
        a, b = name.split("+")
        w = FusionWeights(f["weights"][0], f["weights"][1])
        fused = fuse(np.array(doc["member_scores"][a]),
                     np.array(doc["member_scores"][b]), w)
        acc = 100.0 * np.mean(decide(fused.scores) == truth)
        assert round(acc, 2) == f["accuracy"]


def test_emit_report_writes_expected_files(tmp_path):
    cfg = small_config(fusion_pairs=[("LR", "RF")], report_dir=str(tmp_path))
    rep = run_experiment(cfg)
    emit_report(rep, tmp_path)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "summary.md").exists()
    # the preprocessing record lives in report.json only
    assert not (tmp_path / "preprocessing.json").exists()
    lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 + 1  # header + 2 members + 1 fusion
    assert (tmp_path / "roc" / "LR_class1.csv").exists()
    assert (tmp_path / "roc" / "LR_RF_class1.csv").exists()
    header = (tmp_path / "summary.md").read_text().splitlines()[2]
    assert "Tp" in header and "Roc-Auc" in header


def _tree(root):
    """Every directory and file under root, with the bytes of each file."""
    out = {}
    for here, dirs, files in os.walk(root):
        for d in dirs:
            out[os.path.relpath(os.path.join(here, d), root)] = None
        for f in files:
            path = os.path.join(here, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.mark.parametrize("earlier_report", [False, True])
def test_emit_report_failed_write_leaves_no_trace(tmp_path, monkeypatch,
                                                  earlier_report):
    rep = run_experiment(small_config(fusion_pairs=[("LR", "RF")]))
    dest = tmp_path / "rep"
    if earlier_report:
        emit_report(run_experiment(small_config(fusion_pairs=[("LR", "DT")])), dest)
    before = _tree(tmp_path)

    real_open = open

    def failing_open(path, *args, **kwargs):
        if os.path.basename(path) == "summary.csv":
            raise OSError("disk full")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        emit_report(rep, dest)
    assert _tree(tmp_path) == before


def test_emit_report_replaces_an_earlier_report(tmp_path):
    dest = tmp_path / "rep"
    emit_report(run_experiment(small_config(fusion_pairs=[("LR", "DT")])), dest)
    (dest / "notes.txt").write_text("kept")
    written = emit_report(run_experiment(small_config(fusion_pairs=[("LR", "RF")])), dest)
    # roc/ is swapped whole, so the earlier LR+DT curves are gone
    assert sorted(os.listdir(dest / "roc")) == sorted(
        os.path.basename(p) for p in written if os.sep + "roc" + os.sep in p)
    assert (dest / "notes.txt").read_text() == "kept"
    assert sorted(os.listdir(tmp_path)) == ["rep"]
    assert "LR+RF" in json.loads((dest / "report.json").read_text())["fusions"]


def _row_ids(table):
    """The table with every cell of row i set to i: split and oversample draw
    from the labels and the row count alone, so they move the ids as they
    move the rows."""
    ids = np.arange(table.n_rows, dtype=np.float64)[:, None]
    return table.replace(rows=np.repeat(ids, table.n_cols, axis=1))


def test_weight_eval_validation_mode_runs(monkeypatch):
    for task in ("binary", "multiclass"):
        with monkeypatch.context() as patch:
            _check_validation_mode(patch, task)


def _check_validation_mode(monkeypatch, task):
    """Validation mode picks the weights on held-out training rows, scored by
    the members fitted on the rest, and fuses the test rows with them."""
    fits = {}
    train_one = pipeline._train_one

    def capture(kind, hp, X, y, class_count):
        fits[kind] = (train_one(kind, hp, X, y, class_count), X, y)
        return fits[kind][0]

    monkeypatch.setattr(pipeline, "_train_one", capture)
    cfg = small_config(task=task, weight_eval_mode="validation",
                       fusion_pairs=[("LR", "RF")])
    rep = run_experiment(cfg)

    # the validation split, recomputed outside the pipeline on row ids
    table = load_csv(bundled_data_path())
    table, _ = encode_labels(impute_most_frequent(table))
    table = derive_task(table, TaskKind(task))
    train, test = split(_row_ids(table), SplitSpec(0.2, child_seed(3, "split")))
    train, val = split(train, SplitSpec(cfg.validation_fraction,
                                        child_seed(3, "weight_eval_split")))
    if task == "multiclass":
        train = random_oversample(train, child_seed(3, "oversample"))
    train_ids, test_ids, val_ids = (t.rows[:, 0].astype(int) for t in (train, test, val))
    assert not set(val_ids) & set(test_ids)
    assert not set(val_ids) & set(train_ids)
    assert np.array_equal(rep.truth, table.labels[test_ids])

    val_scores = {}
    for kind, (model, X, y) in fits.items():
        scaler = fit_scaler(table.rows[train_ids], SCALER_FOR[kind])
        assert np.array_equal(X, apply_scaler(scaler, table.rows[train_ids])), kind
        assert np.array_equal(y, table.labels[train_ids]), kind
        val_scores[kind] = model.predict_proba(apply_scaler(scaler, table.rows[val_ids]))

    sel = grid_search(val_scores["LR"], val_scores["RF"], table.labels[val_ids])
    f = rep.fusions["LR+RF"]
    assert f["weights"] == sel.weights
    assert f["sweep"] == [(w.w1, w.w2, acc) for w, acc in sel.sweep]
    fused = fuse(rep.member_scores["LR"], rep.member_scores["RF"], sel.weights).scores
    k = TaskKind(task).class_count
    assert np.array_equal(f["report"].confusion,
                          metrics.confusion(rep.truth, decide(fused), k).counts)
    assert f["report"].roc_auc == metrics.roc_auc(rep.truth, fused)[0]


def test_validate_against_paper_pass_fail_and_note():
    doc = {
        "config": {"task": "binary", "test_fraction": 0.2},
        "members": {"ANN": {"accuracy": 80.0}, "RF": {"accuracy": 95.0}},
        "fusions": {"ANN+RF": {"accuracy": 93.0}},
    }
    checks = validate_against_paper(doc)
    assert checks[0]["status"] == "pass"  # 93 >= 95.08 - 5
    assert checks[0]["note"] == "no-improvement"  # below the 95.0 member

    doc = {
        "config": {"task": "multiclass", "test_fraction": 0.2},
        "members": {"LR": {"accuracy": 50.0}},
        "fusions": {"LR+RF": {"accuracy": 55.0}},
    }
    checks = validate_against_paper(doc)
    assert checks[0]["status"] == "fail"  # 55 < 75.41 - 15


def test_cli_run_validate_summarize(tmp_path, capsys):
    report_dir = tmp_path / "rep"
    code = cli_main(["run", "--task", "binary", "--test-fraction", "0.2",
                     "--seed", "2", "--pairs", "lr+rf",
                     "--report-dir", str(report_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "LR+RF" in out
    assert (report_dir / "report.json").exists()

    assert cli_main(["validate", "--report", str(report_dir)]) == 0
    out = capsys.readouterr().out
    assert "LR+RF" in out

    assert cli_main(["summarize"]) == 0
    out = capsys.readouterr().out
    assert "303 rows" in out


def test_custom_schema_dataset_end_to_end(tmp_path, capsys):
    # three-feature synthetic data with its own schema document
    rng = np.random.default_rng(0)
    n = 80
    x = rng.normal(size=(n, 2))
    cat = rng.integers(0, 2, n)
    labels = ((x[:, 0] + cat) > 0.5).astype(int)
    data = tmp_path / "toy.data"
    data.write_text("\n".join(
        f"{a:.3f},{b:.3f},{c}.0,{l}" for (a, b), c, l in zip(x, cat, labels)) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([
        {"name": "u", "kind": "continuous"},
        {"name": "v", "kind": "continuous"},
        {"name": "flag", "kind": "categorical", "allowed_values": [0, 1]},
    ]))
    report_dir = tmp_path / "rep"
    code = cli_main(["run", "--data", str(data), "--schema", str(schema),
                     "--pairs", "lr+dt", "--seed", "1", "--test-fraction", "0.25",
                     "--report-dir", str(report_dir)])
    assert code == 0
    doc = json.loads((report_dir / "report.json").read_text())
    assert "LR+DT" in doc["fusions"]

    assert cli_main(["summarize", "--data", str(data), "--schema", str(schema)]) == 0
    out = capsys.readouterr().out
    assert "flag" in out


def test_cli_repeat_reports_mean_and_std(tmp_path, capsys):
    report_dir = tmp_path / "rep"
    code = cli_main(["run", "--task", "binary", "--seed", "1", "--repeat", "2",
                     "--pairs", "lr+dt", "--report-dir", str(report_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "across seeds" in out and "+/-" in out
    assert (report_dir / "seed1" / "report.json").exists()
    assert cli_main(["run", "--task", "binary", "--seed", "2", "--pairs", "lr+dt",
                     "--report-dir", str(tmp_path / "single")]) == 0
    assert ((report_dir / "seed2" / "report.json").read_bytes()
            == (tmp_path / "single" / "report.json").read_bytes())


def test_cli_refuses_an_svm_gamma_no_fit_can_use(tmp_path, capsys):
    # a gamma of -1 once trained an SVM at chance level and wrote a report with exit 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hyperparams": {"SVM": {"gamma": -1.0}}}))
    report_dir = tmp_path / "rep"
    assert cli_main(["run", "--config", str(cfg), "--report-dir", str(report_dir)]) == 3
    assert "pipeline error: stage 'train': gamma must be positive" in capsys.readouterr().err
    assert not report_dir.exists()


def test_cli_exit_codes(tmp_path, capsys):
    # usage error: malformed pair
    assert cli_main(["run", "--pairs", "lr"]) == 1
    # data error: missing file
    assert cli_main(["run", "--data", str(tmp_path / "nope.data")]) == 2
    # data error: malformed file
    bad = tmp_path / "bad.data"
    bad.write_text("1,2,3\n")
    assert cli_main(["summarize", "--data", str(bad)]) == 2
    # training failure: invalid hyperparameter reaches the trainer
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hyperparams": {"LR": {"C": -1.0}},
                               "fusion_pairs": [["LR", "DT"]]}))
    assert cli_main(["run", "--config", str(cfg),
                     "--report-dir", str(tmp_path / "rep")]) == 3
    capsys.readouterr()

    # data errors from the loader name the file, and the entry and field
    latin1 = tmp_path / "latin1.data"
    latin1.write_bytes("63,caf\xe9\n".encode("latin-1"))
    assert cli_main(["summarize", "--data", str(latin1)]) == 2
    assert "latin1.data: not UTF-8 text" in capsys.readouterr().err
    assert cli_main(["summarize", "--data", str(tmp_path)]) == 2   # a directory
    assert "Is a directory" in capsys.readouterr().err
    schema = tmp_path / "schema.json"
    for doc, message in [
        ('{"name": "a", "kind": "continuous"}', "a schema document is a JSON list"),
        ('[{"kind": "continuous"}]', "entry 0 has no 'name'"),
        ('[{"name": "a"}]', "entry 0 has no 'kind'"),
        ('[{"name": "a", "kind": "bogus"}]', "entry 0 ('a'): unknown attribute kind 'bogus'"),
        ('[{"name": "a", "kind": "continuous"}, {"name": "a", "kind": "continuous"}]',
         "entry 1 repeats the name 'a'"),
        ('[{"name": "a",', "not a JSON document"),
    ]:
        schema.write_text(doc)
        assert cli_main(["summarize", "--schema", str(schema)]) == 2, doc
        assert f"schema.json: {message}" in capsys.readouterr().err, doc
    schema.write_text('[{"kind": "continuous"}]')
    assert cli_main(["run", "--schema", str(schema), "--report-dir", str(tmp_path / "rep")]) == 2
    assert "stage 'load'" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()

    # usage errors: a config file that is not there, and a report directory
    # that cannot be made; neither leaves a report directory or staging entry
    before = sorted(os.listdir(tmp_path))
    assert cli_main(["run", "--config", str(tmp_path / "nope.json"),
                     "--report-dir", str(tmp_path / "rep")]) == 1
    assert "cannot read config file" in capsys.readouterr().err
    for report_dir in (bad / "rep", bad):   # under a regular file, and a regular file
        assert cli_main(["run", "--pairs", "lr+dt", "--report-dir", str(report_dir)]) == 1
        assert f"cannot write the report to {report_dir}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before
    assert bad.read_text() == "1,2,3\n"

    # usage errors: a report file that is not UTF-8, or is JSON but not an object
    report = tmp_path / "report.json"
    report.write_bytes(b"\xff\xfe")
    assert cli_main(["validate", "--report", str(report)]) == 1
    assert (capsys.readouterr().err
            == f"config error: {report}: not UTF-8 text (invalid start byte at byte 0)\n")
    report.write_text("[1, 2]")
    assert cli_main(["validate", "--report", str(report)]) == 1
    assert capsys.readouterr().err == f"config error: not a run report: {report} is not a JSON object\n"

    # usage errors: a JSON object that is not shaped like a run report
    good = {"config": {"task": "binary", "test_fraction": 0.2},
            "members": {"ANN": {"accuracy": 80.0}},
            "fusions": {"ANN+RF": {"accuracy": 93.0}}}
    report.write_text(json.dumps(good))
    assert cli_main(["validate", "--report", str(report)]) == 0
    capsys.readouterr()
    for section, value, message in [
            ("fusions", [], "fusions is not a JSON object"),
            ("fusions", {"ANN+RF": []},
             "fusions entry 'ANN+RF' is not an object with a numeric accuracy"),
            ("config", {"task": "binary", "test_fraction": "0.2"},
             "test_fraction must be a number in (0, 1), not '0.2'"),
            ("config", {"task": "bogus", "test_fraction": 0.2}, "unknown task 'bogus'"),
            ("members", None, "missing field 'members'")]:
        doc = {k: v for k, v in {**good, section: value}.items() if v is not None}
        report.write_text(json.dumps(doc))
        assert cli_main(["validate", "--report", str(report)]) == 1
        assert capsys.readouterr().err == f"config error: not a run report: {report}: {message}\n"

    # usage errors: a config or report file that is not JSON names the file
    for argv, path in ((["run", "--config", str(cfg), "--report-dir", str(tmp_path / "rep")], cfg),
                       (["validate", "--report", str(report)], report)):
        path.write_text('{"a":')
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: not a JSON document ("), err
        assert err.count("\n") == 1


def test_cli_non_finite_member_scores_are_a_training_error(tmp_path, capsys, monkeypatch):
    from cardiofuse.models import MLPClassifier
    scores = MLPClassifier._scores

    def nan_in_row_0(self, X):
        p = scores(self, X)
        p[0] = np.nan
        return p

    monkeypatch.setattr(MLPClassifier, "_scores", nan_in_row_0)
    out = tmp_path / "rep"
    assert cli_main(["run", "--task", "binary", "--seed", "0", "--pairs", "ann+lr",
                     "--report-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "stage 'score'" in err and "ANN model produced non-finite scores" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--pairs", ","], "fusion_pairs must be a list"),
    (["--pairs", ""], "fusion_pairs must be a list"),
    (["--pairs", "lr+dt", "--repeat", "0"], "--repeat must be at least 1, not 0"),
    (["--pairs", "lr+dt", "--repeat", "-2"], "--repeat must be at least 1, not -2"),
])
def test_cli_rejects_empty_pairs_and_bad_repeat_counts(tmp_path, capsys, argv, message):
    out = tmp_path / "rep"
    assert cli_main(["run", *argv, "--report-dir", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("hyperparams, message", [
    ({"RF": {"bogus": 1}}, "RF has no parameter 'bogus'"),
    ({"XX": {"C": 1}}, "unknown model kind 'XX'"),
    ({"LR": [1.0]}, "LR needs a mapping of parameters"),
    ([["LR", 1.0]], "hyperparams must map model kinds"),
])
def test_cli_rejects_bad_hyperparams_as_config_error(tmp_path, capsys, hyperparams, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hyperparams": hyperparams,
                               "fusion_pairs": [["LR", "RF"]]}))
    assert cli_main(["run", "--config", str(cfg),
                     "--report-dir", str(tmp_path / "rep")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_cli_one_row_data_file_is_a_data_error(tmp_path, capsys):
    one = tmp_path / "one.data"
    one.write_text("63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,0.0,6.0,0\n")
    assert cli_main(["run", "--data", str(one),
                     "--report-dir", str(tmp_path / "rep")]) == 2
    assert "stage 'split'" in capsys.readouterr().err
    # two rows split into one training row, which the validation split cannot
    # divide; unstratified, since two rows of two classes cannot be stratified
    two = tmp_path / "two.data"
    with open(bundled_data_path(), encoding="utf-8") as fh:
        two.write_text(fh.readline() + fh.readline())
    assert cli_main(["run", "--data", str(two), "--unstratified",
                     "--weight-eval", "validation", "--pairs", "lr+dt",
                     "--report-dir", str(tmp_path / "rep")]) == 2
    assert "stage 'weight_eval_split'" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({
        "task": "binary",
        "test_fraction": 0.3,
        "master_seed": 9,
        "fusion_pairs": [["LR", "RF"]],
        "hyperparams": FAST_HP,
    }))
    report_dir = tmp_path / "rep"
    code = cli_main(["run", "--config", str(cfg_file), "--seed", "5",
                     "--report-dir", str(report_dir)])
    assert code == 0
    doc = json.loads((report_dir / "report.json").read_text())
    assert doc["config"]["master_seed"] == 5          # flag overrides file
    assert doc["config"]["test_fraction"] == 0.3      # file value kept
    assert list(doc["fusions"]) == ["LR+RF"]


def test_cli_config_file_carries_every_field(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"weight_eval_mode": "validation",
                                    "validation_fraction": 0.5}))
    report_dir = tmp_path / "rep"
    assert cli_main(["run", "--config", str(cfg_file), "--seed", "3", "--pairs", "lr+dt",
                     "--report-dir", str(report_dir)]) == 0
    doc = json.loads((report_dir / "report.json").read_text())
    assert doc["config"]["validation_fraction"] == 0.5
    assert doc["preprocessing"]["train_rows"] == 121   # 242 training rows, half for weights


@pytest.mark.parametrize("content, message", [
    ([1, 2], "holds one JSON object"),
    ({"bogus": 1}, "unknown RunConfig fields ['bogus']"),
    ({"test_fraction": "0.2"}, "test_fraction must be a number in (0, 1)"),
    ({"test_fraction": True}, "test_fraction must be a number in (0, 1)"),
    ({"validation_fraction": 1.5}, "validation_fraction must be a number in (0, 1)"),
    ({"master_seed": "3"}, "master_seed must be an integer"),
    ({"data_path": 5}, "data_path and schema_path must be path strings"),
    ({"stratified": "false"}, "stratified and has_header must be true or false"),
    ({"fusion_pairs": [["ANN", "RF", "LR"]]}, "bad fusion pair ['ANN', 'RF', 'LR']"),
    ({"fusion_pairs": [["ANN", 1]]}, "bad fusion pair ['ANN', 1]"),
    ({"fusion_pairs": 3}, "fusion_pairs must be a list"),
    ({"fusion_pairs": []}, "fusion_pairs must be a list"),
    (b'{"task": "bin\xe4r"}',   # raw bytes, not UTF-8
     "cfg.json: not UTF-8 text (invalid continuation byte at byte 13)"),
    (b'{"a":', "cfg.json: not a JSON document (Expecting value"),
])
def test_cli_rejects_malformed_config_files(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    assert cli_main(["run", "--config", str(cfg),
                     "--report-dir", str(tmp_path / "rep")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def _prepared(task, frac, seed):
    table = load_csv(bundled_data_path())
    table = impute_most_frequent(table)
    table, _ = encode_labels(table)
    table = derive_task(table, TaskKind(task))
    return split(table, SplitSpec(frac, seed=child_seed(seed, "split")))


def test_forest_reaches_binary_accuracy_floor():
    from cardiofuse.models import RandomForestClassifier
    best = 0.0
    for seed in range(5):
        train, test = _prepared("binary", 0.2, seed)
        m = RandomForestClassifier(n_estimators=100,
                                   seed=child_seed(seed, "train", "RF"))
        m.fit(train.rows, train.labels)
        best = max(best, (m.predict(test.rows) == test.labels).mean())
    assert best >= 0.85


def test_adaboost_reaches_binary_accuracy_floor():
    from cardiofuse.models import AdaBoostClassifier
    best = 0.0
    for seed in range(5):
        train, test = _prepared("binary", 0.3, seed)
        scaler = fit_scaler(train.rows, "zscore")
        m = AdaBoostClassifier(n_estimators=250, learning_rate=0.01)
        m.fit(apply_scaler(scaler, train.rows), train.labels)
        pred = m.predict(apply_scaler(scaler, test.rows))
        best = max(best, (pred == test.labels).mean())
    assert best >= 0.82


@pytest.mark.parametrize("task", ["binary", "multiclass"])
def test_fusions_come_back_from_the_scores_a_report_stores(tmp_path, task):
    # in test mode the weights are picked on the test rows, whose scores and
    # labels report.json stores as member_scores (10 decimals) and truth
    for fraction in (0.2, 0.3):
        for seed in range(2):
            report = run_experiment(RunConfig(task=task, test_fraction=fraction,
                                              master_seed=seed))
            out = tmp_path / f"{fraction}-seed{seed}"
            emit_report(report, out)
            doc = json.loads((out / "report.json").read_text())
            scores = {k: np.array(v) for k, v in doc["member_scores"].items()}
            truth = np.array(doc["truth"])
            fusions = pipeline.fuse_pairs(scores, scores, truth, truth,
                                          report.config.fusion_pairs, TaskKind(task).class_count)
            again = pipeline.report_to_dict(dataclasses.replace(report, fusions=fusions))
            assert json.loads(json.dumps(again["fusions"])) == doc["fusions"]


def test_run_twice_identical_report_bytes(tmp_path):
    digests = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        cfg = small_config(fusion_pairs=[("LR", "DT")], report_dir=str(d))
        emit_report(run_experiment(cfg), d)
        blob = b""
        for root, _, files in sorted(os.walk(d)):
            for f in sorted(files):
                blob += open(os.path.join(root, f), "rb").read()
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]


# sha256 of report.json for master seeds 0-4, keyed by weight mode, task and
# test fraction (80:20 and 70:30); a change that moves report bytes records
# the new digests here and says why. A failing run prints each moved entry of
# this table and of _DIRECTORY_DIGESTS in the tables' format
_REPORT_DIGESTS = {
    ("test", "binary", 0.2): [
        "ad41f2011b03eb6f868b223f674819d595ac4b7bd203b24f71bdeea7856da3c5",
        "8bcc22ff73095ec17aefb706df1a85f957e6b6be2336e202cfc2a1a955f3d6ed",
        "71769a173e0b33d4c000e783cb68a2aaa636fa2e31de36b77357997265aa87e3",
        "c07ab0b3829665d7c9bbe9b54e05e50dda10d1ffccee9180d2c97102dc97dad0",
        "e30c3f3ab452ee6ea21711ef5c953441813abca7c8c21ce9bea695177e7adccd",
    ],
    ("test", "multiclass", 0.2): [
        "fe2404315f42fda60e9491e7aee7b428b242626c87a16d3ea8d1ab918e0cf039",
        "1e705fc2b2d24de90235713ffaf237a5aa65580fe07bddc1c262899e625879b2",
        "3c95c0b0ad85de5ac6c41963dc07f3f5f7833e0bc2c38f1faae7947ad284c29b",
        "581d1f32a13f52d4ec0ac70f194b9cab961d30b90a19c68a9f8f6a5103524e24",
        "961e912b7a3d655146764fed0765f920a4d353db6ca54d7b7e0b507cf13334b2",
    ],
    ("validation", "binary", 0.2): [
        "5dfc87625a1afc2e6ac708bc73eb267fdd8511d61ae57cf86024c314e0c99e40",
        "53b16147c9c16496a91c879635f64a7a413269264622bbd877c25274b2bec14b",
        "1d50659eb4a834ca75968be066a75349cbecf2395eedf7c40ef3dd9a01453e7f",
        "163d62eaf69cd04237e2e53fd4a004c0a170c7acf2ac32a0b7497f6ba96987d6",
        "e649d3825d05151c7dd29a1ab9b035199ed8b5936c85e681b56600cd5229e7f5",
    ],
    ("validation", "multiclass", 0.2): [
        "8b4667c6733a7d811dd8e33b7dff40a48239c5c7f24cf5e85024ab58224cadb7",
        "f8bc4a730bbcb761ff610342486b59ec1d6a65243d1d8fa0e32295652506a52d",
        "fb27cca1c0aba5ec13d45e246ccdf56b6f2116de5762ddb930a0901d8822c02e",
        "cf4879f4e3655ec90e0283a8dbfb61cc396e7aa5d97ac6deb1a79dd6a1247c57",
        "d687a3feff24c021ced3d69ab9618900d3072ddadea39f93fe2db0a90484be0e",
    ],
    ("test", "binary", 0.3): [
        "497aa4db08528d337b8e11ec64ae31eebea4c3297186a9e57240024ff3210c54",
        "76594a8774cdbf73733aa35d0c4913b893ced6e56bb81efa251407a0a1c2aaf8",
        "20ba4b6b10e5a961a80d5796b22b481005002ba045aa42562a9fdd60066d85f9",
        "4197cd6d46c44cd268ab286e5d842abc89266f1c5ff47afdef683bf1154520fa",
        "6ce7f530b91580b9a893967b6476bcefd9525b5ad30a7e4d984ce6efb228e2f4",
    ],
    ("test", "multiclass", 0.3): [
        "0b1c832dbb62eec1da80c3eb7c218f6d09c7a2a10a54376d90b6d661c5ebc4fa",
        "1c02a876e8934b7aa894df4c81c7ba93b9bfaead781e38f10a544139bda82d20",
        "46e58971c98fc851a37fd8a4eca8def97fec7aced7b53b3fd4024bc962502f8c",
        "531acdb619d69ab84df74bc9e0b6608906f982555f709931b0656ef9d6990a7b",
        "73fed0beeb5f0aba490c4c75b5faba22e5152114015cc2610aa8e7b288fb6e14",
    ],
    ("validation", "binary", 0.3): [
        "57efe86de953aff157015aa17958e970bda1d87c891bee383e718f05891a606a",
        "9e6fe8d784b8829dc01eeb0d03301e31320d7911b5188d1e30bb07e317baec2a",
        "d0358f9620be06ad5028cc1f8731c23592aa5a3744bd12cad11db959d94b1e33",
        "38cbfdf624dba998d775b36dc1c352650254556077e9f58f774a42c34b8edb62",
        "81d1cfd3a2dffc55b676fc9af29c8fe08051c620b40d8723158cb593b2fbb10d",
    ],
    ("validation", "multiclass", 0.3): [
        "a9e1e52d5584648071ea8a74b35aeb11df224aa2a23de364db2fa28ec96ec007",
        "deaaa01c5932394fe6260d920bb6ba2365b98da29aff1214e63f1087cea01608",
        "33f9f2867b7744f003d734961568644606f68d0869fde5836b09ca4acb99917e",
        "23518d63845568f75c9b992288aeb28566cce6b76d2cf786b1711a0861e86080",
        "24990b94c1e80f5137ea87d218e5807dd1d88ccdcae92b5329d1104fc05018a1",
    ],
}


# sha256 over every file of the same report directories (report.json,
# summary.md, summary.csv and roc/*.csv), as `_directory_digest` reads them
_DIRECTORY_DIGESTS = {
    ("test", "binary", 0.2): [
        "05877840365ccc04f9251b3de3e38f4a880762188fdfa79a6aacb1f64eb7c2df",
        "4f8f941a9e8896d53e17bf831e9fb2cbdb1439d6bc8fe58e31d6de59e1bcd762",
        "ddb18e33b17517ee84cbcfc635cbacf9cb758701f389d30cc09c8b341b6069a6",
        "56a2707b9acdad2e2f90d6bd6fe24a806791d89fbeee22a81cafee3163e1545c",
        "3f1db6bfbd8789270db3172fa4e0284457058aa12c8a8e4be5dadaaddd220cdd",
    ],
    ("test", "multiclass", 0.2): [
        "a0ae45017c17dce05553dba8c0159400458c5fffab32311087814eab41d3dee2",
        "cc61280cdf5d564340d94619afe9e0806383a396db8a3d9ff130c4b7e52a64c3",
        "03fbb1401a47354c061367d8f3bcfda8db77a15e01fd248fc2cdd310e2908c3d",
        "1cf408cc8e064391cc9c30cfc5c45c6e4f5ec4de651f4083b7f58ff6c600130c",
        "df9bd086fffdbccca187d3b5a7e4ee02fb26a22c061e036752d673e29d653e59",
    ],
    ("validation", "binary", 0.2): [
        "55deb9b8b2b720141cf306fe94371b6a4713e86aa70b0ec058ae5ad49a1eb5f7",
        "bbbb16c8fcc23c72ef12f3ff7106c6234ace9fad6640a074b3e967344d434bfc",
        "c0137b66654d6cd29eb1f2bacf7f50afc5028fa17abe238be565ea054fdb5f16",
        "0921c263180612fb7da63d3da5303595346aea069ca80d37abdc68bc460c8892",
        "6b8ffc2aceb262dd61ebd8a1b412c0291f4d2f38ae0df0f38d884a191b62eade",
    ],
    ("validation", "multiclass", 0.2): [
        "5aee2c0e19d5f9bc8b708c4d7a9d8ed0263370ec72dfbc71ebb30d38009933cf",
        "cff204862c99fdba000693047304e72974b5e2975c9eee57e9c1399e50679d7b",
        "eecada004aae54e5a2ca41f96e7a569e770fe256528412cf5445b0f661757e91",
        "36c978ac20e3b68a7b72283e852d3ea444a569bbc38273e1a85fda090e48fb29",
        "8d036639f1520dcfff764223affbfb90178f2d68793d3d01291f3a9bd681f781",
    ],
    ("test", "binary", 0.3): [
        "45dfdebc81bb8bc23fadf4247a77c43af2d2bb0c17422ae6a893f6b5008de64f",
        "fd8c08bda0569d0acba673932f7d6b13093db91048246ac1f97b9bef34da6379",
        "0b4611906c75e9d28fa9335c719ad79c14a3303702910980eab2e40566f0a237",
        "ac45053671cd3ddf832c9aaf525334f4523d8e0ca9169fa6dd89b90e7317a43b",
        "fda846ed58b7da2b97f68853a21fd9522c894d37290c7dfa532a325d4d039470",
    ],
    ("test", "multiclass", 0.3): [
        "cbe41f925af30638657f603529d375af67e1242245fa6b1873aa184ead976cb0",
        "5186b8b2cf4fca99f74c3b2b31f24fa10545452aa3a6ce919e8f0381a98bd646",
        "e8945b8a58eda31ad1291cb08d3fd44153c689a4a2e46b20c13a02573986423c",
        "670ffa431ff9fdcad3d59d741e35834fd9fe074b76869558f6cd86533027cef5",
        "93613d298d71e3f0760bc472e47542cb7e81141530049ef8815e7e74607d966d",
    ],
    ("validation", "binary", 0.3): [
        "97489723bb245c6a9115b6a6610efaf3b269c84b3ac948715d120fe121cda294",
        "aef1ae75f75c718ba5e1318b1482ffef5158e542e2217ffbe1e08df61be9d753",
        "a01394d53fada9cb1fffa838ba7915d7225a9e605881a452ec10389c44b9a58f",
        "76f51688f1886b39218bf76ee89c8b53cfcd02dd97eae16f653fb920e198767a",
        "a4160f6a8c76a1fcf2385eeee7c0f4abb620bef9b154a401ac1cdebaa9f1233d",
    ],
    ("validation", "multiclass", 0.3): [
        "59427801c29462d45478febd361d3cabf96c63dffd5696e115176b3a3636e75f",
        "1f7caba8607f1da944d1b495ba19a2f292a4966ab1b582a0b77ce880a69fefc6",
        "0c4515b6646998244dc9ed86621312cc0ec99f3f03158a0c3c989d4d7a7b296b",
        "ca6c084624e37aa73d4241d171da4eddf3187f226c65e41daeb45fedc8595df8",
        "57ecb8963d807de96c3259a984b06d004c316c0249a4457205fe0060834d35b0",
    ],
}


def _directory_digest(root):
    """One sha256 over every file under root, in sorted relative-path order;
    each file contributes its path and length, then its bytes."""
    h = hashlib.sha256()
    for rel, path in sorted((p.relative_to(root).as_posix(), p)
                            for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _pinned_entry(key, digests):
    """``key: digests`` as an entry of the digest tables above."""
    mode, task, fraction = key
    return "\n".join([f'    ("{mode}", "{task}", {fraction}): [',
                      *(f'        "{d}",' for d in digests), "    ],"])


@pytest.mark.parametrize("mode, task", sorted({key[:2] for key in _REPORT_DIGESTS}))
def test_desk_reports_match_pinned_digests(tmp_path, mode, task):
    moved = []
    for fraction in (0.2, 0.3):
        digests, directories = [], []
        for seed in range(5):
            out = tmp_path / f"{fraction}-seed{seed}"
            emit_report(run_experiment(RunConfig(task=task, test_fraction=fraction,
                                                 master_seed=seed, weight_eval_mode=mode)), out)
            digests.append(hashlib.sha256((out / "report.json").read_bytes()).hexdigest())
            directories.append(_directory_digest(out))
        key = mode, task, fraction
        for name, table, got in (("_REPORT_DIGESTS", _REPORT_DIGESTS, digests),
                                 ("_DIRECTORY_DIGESTS", _DIRECTORY_DIGESTS, directories)):
            if got != table[key]:
                moved.append(f"{name} {key} moved:\n{_pinned_entry(key, got)}")
    # each moved entry prints in its table's format, to copy over it when the move is meant
    assert not moved, "\n".join([*moved, kernel_note()])
