"""Determinism and second-seed check of the benchmark itself.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

Runs the traced benchmark twice on seed 1 and once on seed 2 for each
workload (all four by default), for the run_seconds of BENCHMARK.json.
Every count metric (calls, elements, eta calls per search, computed bytes,
spans), max_err, mean_gap (unfloored, from the run's record) and fail_frac
must repeat exactly on the same seed, and every run must be correct with no
failed item.  Prints one line per workload; exits 1 on any
mismatch or failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

SEED, SECOND_SEED = 1, 2
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
EXACT_UNITS = ("count", "B")
EXACT_NAMES = ("max_err", "mean_gap", "fail_frac")


def traced(workload: str, seed: int) -> dict:
    """The result line of a traced run, with the unfloored mean_gap of its
    record added to the metrics."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "1"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE.parent / ".perfbench_out" / f"{workload}-seed{seed}-trace1.json").read_text())
    result["metrics"]["mean_gap"] = {"value": record["worker"]["mean_gap"], "unit": "nats"}
    return result


def exact(result: dict) -> dict:
    return {
        k: m["value"] for k, m in result["metrics"].items() if m["unit"] in EXACT_UNITS or k in EXACT_NAMES
    }


def main() -> int:
    ok = True
    for w in sys.argv[1:] or WORKLOADS:
        if w not in WORKLOADS:
            print(f"unknown workload {w!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        a, b = traced(w, SEED), traced(w, SEED)
        c = traced(w, SECOND_SEED)
        differ = sorted(k for k, v in exact(a).items() if exact(b)[k] != v)
        clean = all(r["correct"] and r["failed"] == 0 for r in (a, b, c))
        ok = ok and clean and not differ
        print(
            f"{w}: {len(exact(a))} exact metrics, differing on seed {SEED}: {differ or 'none'}; "
            f"failed items {a['failed']}/{a['attempted']} (seed {SEED}), "
            f"{c['failed']}/{c['attempted']} (seed {SECOND_SEED}); all correct: {clean}",
            flush=True,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
