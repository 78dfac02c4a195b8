"""Command-line interface: run experiments, validate reports, summarize data.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from .dataset import (DataError, ParseError, bundled_data_path, load_csv,
                      load_schema_file, read_json, summarize)
from .models.base import ModelError
from .pipeline import (DATA_STAGES, ConfigError, PipelineError, RunConfig,
                       emit_report, run_experiment, validate_against_paper)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_TRAINING = 0, 1, 2, 3


def _parse_pairs(text: str) -> list[list[str]]:
    """Split "ann+rf,svm+lr" into [["ann", "rf"], ["svm", "lr"]]; RunConfig validates them."""
    return [chunk.strip().split("+") for chunk in text.split(",") if chunk.strip()]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cardiofuse",
                                description="Weighted score-level fusion experiments "
                                            "on the Cleveland heart-disease data")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train, fuse and report")
    # flag defaults are None so explicit flags override config-file values
    # while absent flags defer to them
    run.add_argument("--data", help="path to a Cleveland-format file "
                                    "(defaults to the bundled copy)")
    run.add_argument("--schema", help="JSON schema document for non-Cleveland data")
    run.add_argument("--task", choices=["binary", "multiclass"], default=None)
    run.add_argument("--test-fraction", type=float, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--pairs", help="comma-separated fusion pairs, e.g. ann+rf,svm+lr")
    run.add_argument("--report-dir", default=None)
    run.add_argument("--weight-eval", choices=["test", "validation"], default=None,
                     help="where fusion weights are selected (default: test, "
                          "matching the source experiments)")
    run.add_argument("--unstratified", action="store_true")
    run.add_argument("--has-header", action="store_true")
    run.add_argument("--config", help="JSON file mirroring RunConfig; flags override")
    run.add_argument("--repeat", type=int, default=1,
                     help="repeat over N consecutive seeds and report mean/std")

    val = sub.add_parser("validate", help="compare a report against the paper values")
    val.add_argument("--report", required=True, help="report directory or report.json")

    summ = sub.add_parser("summarize", help="per-column statistics of a data file")
    summ.add_argument("--data", help="path to the data file (defaults to bundled)")
    summ.add_argument("--schema", help="JSON schema document for non-Cleveland data")
    summ.add_argument("--has-header", action="store_true")
    return p


def _config_from_args(args) -> RunConfig:
    """RunConfig from the --config file's fields, with the given flags laid over them."""
    cfg = {}
    if args.config:
        try:
            cfg = read_json(args.config)
        except ParseError as e:
            raise ConfigError(str(e)) from None
        except OSError as e:
            raise ConfigError(f"cannot read config file {args.config}: {e.strerror}") from e
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.config}: a config file holds one JSON object")
        unknown = sorted(set(cfg) - {f.name for f in dataclasses.fields(RunConfig)})
        if unknown:
            raise ConfigError(f"{args.config}: unknown RunConfig fields {unknown}")
    flags = {"data_path": args.data, "schema_path": args.schema, "task": args.task,
             "test_fraction": args.test_fraction, "master_seed": args.seed,
             "report_dir": args.report_dir, "weight_eval_mode": args.weight_eval,
             "fusion_pairs": None if args.pairs is None else _parse_pairs(args.pairs),
             "stratified": False if args.unstratified else None,
             "has_header": True if args.has_header else None}
    cfg.update({name: value for name, value in flags.items() if value is not None})
    cfg["report_dir"] = cfg.get("report_dir") or "reports"
    return RunConfig(**cfg)


def cmd_run(args) -> int:
    if args.repeat < 1:
        raise ConfigError(f"--repeat must be at least 1, not {args.repeat}")
    config = _config_from_args(args)
    started = time.strftime("%Y-%m-%d %H:%M:%S")
    print(f"run started {started}; config hash {config.config_hash()}")

    accs: dict[str, list[float]] = {}
    for rep_i in range(args.repeat):
        cfg = dataclasses.replace(config, master_seed=config.master_seed + rep_i)
        report = run_experiment(cfg)
        out_dir = (cfg.report_dir if args.repeat == 1
                   else os.path.join(cfg.report_dir, f"seed{cfg.master_seed}"))
        try:
            written = emit_report(report, out_dir)
        except OSError as e:
            raise ConfigError(f"cannot write the report to {out_dir}: {e}") from e
        print(f"seed {cfg.master_seed}: wrote {len(written)} files to {out_dir}")
        for name, f in report.fusions.items():
            acc = f["report"].metrics["accuracy"]
            accs.setdefault(name, []).append(acc)
            w = f["weights"]
            print(f"  {name}: accuracy {acc:.2f} at weights ({w.w1:g}, {w.w2:g})")
        for kind, rep in report.members.items():
            print(f"  {kind}: accuracy {rep.metrics['accuracy']:.2f}")

    if args.repeat > 1:
        print("across seeds:")
        for name, vals in accs.items():
            arr = np.asarray(vals)
            print(f"  {name}: mean {arr.mean():.2f} +/- {arr.std():.2f} "
                  f"(n={len(arr)})")
    return EXIT_OK


def cmd_validate(args) -> int:
    path = args.report
    if os.path.isdir(path):
        path = os.path.join(path, "report.json")
    try:
        doc = read_json(path)   # a missing file is an OSError: a data error
    except ParseError as e:
        raise ConfigError(str(e)) from None
    if not isinstance(doc, dict):
        raise ConfigError(f"not a run report: {path} is not a JSON object")
    try:
        checks = validate_against_paper(doc)
    except KeyError as e:
        raise ConfigError(f"not a run report: {path}: missing field {e}") from None
    except ConfigError as e:
        raise ConfigError(f"not a run report: {path}: {e}") from None
    for c in checks:
        status = c["status"].upper()
        note = f" [{c['note']}]" if c.get("note") else ""
        if c["paper"] is None:
            print(f"{status:4s} {c['fusion']}: accuracy {c['accuracy']:.2f} "
                  f"(no paper target for this menu){note}")
        else:
            print(f"{status:4s} {c['fusion']}: accuracy {c['accuracy']:.2f} vs paper "
                  f"{c['paper']:.2f} (tolerance {c['tolerance']:.0f}, "
                  f"margin {c['margin']:+.2f}){note}")
    return EXIT_OK


def cmd_summarize(args) -> int:
    path = args.data or bundled_data_path()
    schema = load_schema_file(args.schema) if args.schema else None
    table = load_csv(path, schema=schema, has_header=args.has_header)
    stats = summarize(table)
    print(f"{table.n_rows} rows, {table.n_cols} feature columns")
    for name, entry in stats.items():
        if name == "label":
            counts = " ".join(f"{k}:{v}" for k, v in entry["counts"].items())
            print(f"label counts: {counts}")
        elif "mean" in entry:
            print(f"{name:10s} mean {entry['mean']:8.2f}  std {entry['std']:7.2f}"
                  f"  (missing {entry['missing']})")
        else:
            freq = "  ".join(f"{code:g}={pct:.2f}%"
                             for code, pct in entry["frequencies"].items())
            print(f"{name:10s} {freq}  (missing {entry['missing']})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "summarize":
            return cmd_summarize(args)
        return EXIT_USAGE
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except PipelineError as e:
        print(f"pipeline error: {e}", file=sys.stderr)
        if e.stage in DATA_STAGES:
            return EXIT_DATA
        return EXIT_TRAINING
    except ModelError as e:
        print(f"training error: {e}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
