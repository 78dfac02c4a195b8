"""sha256 digests of report.json over the desk-scale matrix.

    python3 perfbench/digests.py write     # record perfbench/report_digests.json anew
    python3 perfbench/digests.py compare   # recompute; print mismatches, exit 1 if any

The matrix is master seeds 0-4 x {binary, multiclass} at the 80:20 split.
A pure refactor leaves every digest unchanged. This is a byte-identity
oracle, not a benchmark gate: a change that corrects the method may change
report bytes, and then records the new digests and says why.
"""

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "perfbench" / "report_digests.json"
OUT = ROOT / "perfbench" / "out"
TASKS = ("binary", "multiclass")
SEEDS = range(5)
TEST_FRACTION = 0.2


def matrix_digests() -> dict[str, str]:
    from cardiofuse import pipeline
    from perfbench.workloads import run_and_emit

    out = {}
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="digests-", dir=OUT)
    try:
        for task in TASKS:
            for seed in SEEDS:
                config = pipeline.RunConfig(task=task, test_fraction=TEST_FRACTION,
                                            master_seed=seed)
                _, blob, _ = run_and_emit(config, tmp)
                key = f"{task}/{TEST_FRACTION}/seed{seed}"
                out[key] = hashlib.sha256(blob).hexdigest()
                print(f"{key} {out[key]}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("mode", choices=("write", "compare"))
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    digests = matrix_digests()
    if args.mode == "write":
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {DIGESTS.relative_to(ROOT)}")
        return 0
    recorded = json.loads(DIGESTS.read_text())
    mismatches = [key for key in sorted(set(recorded) | set(digests))
                  if recorded.get(key) != digests.get(key)]
    for key in mismatches:
        print(f"MISMATCH {key}: recorded {recorded.get(key)}, now {digests.get(key)}")
    print(f"{len(digests) - len(mismatches)} of {len(recorded)} digests match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
