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
# the new digests here and says why
_REPORT_DIGESTS = {
    ("test", "binary", 0.2): [
        "8e2e5ffa5e125bdc6fdf555b35aff9f1b4defc9406a582e1b2fa70765dd8691e",
        "6851a8321f4093784a8a93994b6f6b19bb2f6bc68d48ce739f2f3ea1597152ea",
        "441d513ae600f9ece212958c18492391aa17557bbbd8a91d9ac20fe86d8388f5",
        "7e86bc405fb793e8e805bf4fd9025ce2a9684dc0d1dfbd1e10c760f21a951cc5",
        "f411fd8b6f583764cad47681379899bfebd10789e0f1c365e5808668319ed706",
    ],
    ("test", "multiclass", 0.2): [
        "73ab607d71183e7b0f19c70e43316254c193cda8f9805add5e8f632e441774bb",
        "eba4be5010d45986b45dedd8b6cde2ad0a30ef312f312389ccd2fd23939f47f1",
        "f4589d0e64b79797ba2c364f06845672169b5b5429fb6638991e8b94ef57174c",
        "6f16fe91226d5c07baec717b635f32fec66200e184ba72366163e9533fd52aaf",
        "6c8c16faee2b0bafef29515a494b9a39b0d1cc872664d87c34b7dec42ff151c9",
    ],
    ("validation", "binary", 0.2): [
        "a364d266cd633bc819e567d2b7fb65290d628e6ea2a83a48cee1bae667c569e7",
        "8b05e469b5d1e78dceb2d39e3b2f104b5fbda6f026126ae3b652d7e16dc636e0",
        "41b65cde1a87f542f11df2414bbba145845b2100ecacd3dfe5469c1ba2e995ea",
        "514efa21078524a91229ee90ae591b4f1e767c2db5eee2cf12320a59a256bea6",
        "b5a8a2d0cfffcbb2a120ded938168529ce9d7fcf4013f58e9b013e1509a40b62",
    ],
    ("validation", "multiclass", 0.2): [
        "ca4faaab0e9ac40fa1cd7ec995ff2914d1a800c6e6d99c5d074c937028d7f9e1",
        "d6b09dca71baaeef0cd7eb318dc65d73320899699bdcde85a383934e3e633ae3",
        "b8adcad341d8ca30df34a54c5afa6bcfdcd6522c24898f203bf7a522ca7810a8",
        "c3f186578173d320b3e93add21394ed211facf0dc994a040e49ad883a54b9be0",
        "e32a882d57791d9e2891ec1ae1c16c1125716abd40583bcd0eaf6d083f534984",
    ],
    ("test", "binary", 0.3): [
        "c02cb34cac0e240fef04f86146cf1ecab631021146dd9548ce1fee47e86ae295",
        "6175cf497686be267a0e14410f7203cac7e734da8c932fb23cd1cc7eb562fbc0",
        "8a4e6365fb60e409e95e18a3ab648920955600c07d95cb9acde6cd15d1e61520",
        "c2adbe542189d154e0f4e553be939a1458717cf48ac16f42d9904f3cb20921b2",
        "3ea3cba37c94756f36f96680d36a43062883a07bef58ff2c4ad4047a5695f7c9",
    ],
    ("test", "multiclass", 0.3): [
        "045b943b40ad8c34abca6fca7d78e3a0f7aef66359ee78d426e6a97edc78b26c",
        "8a99a2f9c9f547c0ad428202a6b506146591d26bab10a9bc3a0791ceebae12b1",
        "7e9e1593b85b18dbffbafdb9d399406d50ddd8d11c356e602f737a8b3e52cb62",
        "2dd62029abeae28177becda2f771174bb9254e25009dafbb8697f15762df648d",
        "46663b835b51d2fe935373275b316be8bf79112fa07f17a1e4210686694bad7f",
    ],
    ("validation", "binary", 0.3): [
        "bdd2c5a5ed8de2e7ab9c015850a1b6b9aa84dfd05fd35613a196be2cb8ff9ca7",
        "6daee8168749202a65fe856f5ebf479446b7303da71ec1daa0ec1ca98f5d7f0d",
        "126fe849f6463385a99af990b24bd1890e4c5a8b7788f07310247404ee1d3d8b",
        "0f944e392142be0df63aee1679c7d4e91329cc90304140ef288f84dfd6d134b2",
        "48d831deac6419bce444f8383904d0cc4c295d38b42b2c65dba70b2dc449f1d7",
    ],
    ("validation", "multiclass", 0.3): [
        "160bcfb882d1bce7c45e34dfeaf09be46e176b74f6cbf7223698aaeaa4553fab",
        "c57115d02a31fb8cda6e11a232e627bbbce7b78c89991fab20de80e0a092ce2a",
        "0c7a243a435b92382a5e14ef852d81039f6e1da983bd95fb18dd1349b111aef4",
        "098342986242138f347757560ff4e1929918dfd3c056092256e8c0adf829789c",
        "14fb4c01a3a8720a7c1b2b9a265bb649dc65d1e048400d74d07e7e1fb6d974f4",
    ],
}


# sha256 over every file of the same report directories (report.json,
# summary.md, summary.csv and roc/*.csv), as `_directory_digest` reads them
_DIRECTORY_DIGESTS = {
    ("test", "binary", 0.2): [
        "f1b3d17d35b4e10193b4b123a1b8db6ffad1be1c3601955d4cb0eb326f41f645",
        "a3e7ae60a3b92e34b40a063b063e1bdd5e9a33f3ff0d0f12c82f85c2af1e864e",
        "a2db539c615c2f7a7f1b9da94ebc49b57220958f4fd43ffeb1471a627890ffa3",
        "eb1df0e1ccc9e1302aa833905ab65d0cf83efe5429ac27c2254cd0cfd89b52a1",
        "b4a469e83b6a1fa587537600e94fd00ffd26ee9a7abe865d35f86f47872ea17a",
    ],
    ("test", "multiclass", 0.2): [
        "2ae220fa611847f2d70e540750458aee099d0d39bb2e253468085f1c7af8dd9c",
        "837eaa485ba388fd508a5acc41d1d3c6027c73cb23e3f8e071df15b1581165c6",
        "7335e35cf8d45bdaba3e0ce443c092a8171fd5ac22eb9b2883605a2ba7324776",
        "ff170a4171ebd03668113a822fa64872eb094c7d09e8bbe09571c23463dc0b24",
        "cd6af3fc07dc0d1b62a825785820271eceae026aa59644d52228cc350efce6c4",
    ],
    ("validation", "binary", 0.2): [
        "63f45d3bbf313485a65455607f3714558e8bb594e88e519cec2b6509b953e4aa",
        "42787459cc3d99aa4b01d115ebd67f103a489d5c27dabd809c0fb0107aec924a",
        "1ccd345be9ee6014d8d079b10b95baa0ca1bef020f247dd371bbe8571e9b791b",
        "d6d3ccaca5cb772823c4dc4db70a087f041c5f45c79e448e1c73634653a600f5",
        "fbe2dcaa4e702c002b8444b906fdc8fa707b07cee4f476c470a508603f4c7c98",
    ],
    ("validation", "multiclass", 0.2): [
        "aecab4e45ac32e28dee48da7d74c623a90f703f39c45461762240dbc7b970327",
        "91d8a3c47798a805eb4b7ff0920829c18f5c3fdf331da73e7fbc196e0be80411",
        "1bc540bfed97e2ba0b7eecdea01fed0802f3fd7356a6e0c66aaf7aa384bd8f2c",
        "8a5145efff69bab90d6402fc5bc65e283ad1f736039c02fc0647c61eef3fce9b",
        "6030cf67add5287c09df17ac9dc39ab709d04005719cb7924d4945ac875bbfd1",
    ],
    ("test", "binary", 0.3): [
        "2da8f8d88adab8d0b0477bec19f26495cb16fe3a4eb9b08ce6f4fd575c62bf76",
        "dd35d962f5aab0907d317fab79655f28ac22ecb75a368451d8354b747f0e5dbc",
        "6c7b0b4b3c1cc7ee66dcf5190fc855a955050729b3535cf651dfe7127b3a7379",
        "11f0f32e432efb06fac22220ed6ac21c28f2c8310c0d0cbdaf63baa9537a488b",
        "d087914c1403728e7fdc5693384b74860990e0e1173de301d40a04056dff95e7",
    ],
    ("test", "multiclass", 0.3): [
        "2d2ca989a5029eabec90c0eae45b766d62c3e542d8ae5ccf442d0c2f9175c040",
        "1e53df7401dd91b01bc9d7c529e3592973eb9257d930d4bc9bef334046d0cfda",
        "9a176ec882858c8d5d98524c8752c5bce76e2ef70db47220959b7a16f9ce7459",
        "e8a5fd63f8691e8fe1c72347da4fc5fad62f79fdfed824dd08bb81a3b001ac22",
        "065e881c72b09b55fe8dcc08b703646bc6e992286e1943e54dc32bbf653c2af8",
    ],
    ("validation", "binary", 0.3): [
        "2aa5706377bfffa36ba14de1f9b7313fe6cae7ea1b2592e44ac93fdfc493c625",
        "f733d98d2ed200926b165b0af4123755bd0d79dc41d5a5278e0c5668b65b294d",
        "06f1ccc54d5215faae40978bac76bdf8a23034ae250ff0ef614fd3bdd7bd9f3b",
        "9eb85552686efffcc75830575b123387577f2b4547b416533806a2f4b907336a",
        "dac0fcb4771b972b18739c41534ae56c3df7b381c5de97a47860efe0bdd7a6c5",
    ],
    ("validation", "multiclass", 0.3): [
        "72063565b6036d632138349b3c7348619f743ab65d2ac874e57ad51151ef2083",
        "0d3790869a191b6734ab73e95b279de6d02071d851755bc1354a9189383838eb",
        "e2ca3d1ee27fbfb003dcfc0a8a26360a1a701bab3a788972b59865c7737f9732",
        "4ae00b2fb9a33e3cfc3e3265b1acc870067bc254a25a0e34fe7dcf777a9c36d6",
        "8f43725f20527b071e90ecf39e7126d21c1495748ebe5ecf95203b8ff2bf0769",
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


@pytest.mark.parametrize("mode, task", sorted({key[:2] for key in _REPORT_DIGESTS}))
def test_desk_reports_match_pinned_digests(tmp_path, mode, task):
    for fraction in (0.2, 0.3):
        digests, directories = [], []
        for seed in range(5):
            out = tmp_path / f"{fraction}-seed{seed}"
            emit_report(run_experiment(RunConfig(task=task, test_fraction=fraction,
                                                 master_seed=seed, weight_eval_mode=mode)), out)
            digests.append(hashlib.sha256((out / "report.json").read_bytes()).hexdigest())
            directories.append(_directory_digest(out))
        assert digests == _REPORT_DIGESTS[mode, task, fraction], fraction
        assert directories == _DIRECTORY_DIGESTS[mode, task, fraction], fraction
