"""Runs one workload in a fresh process and prints its measurements as one
JSON line.  Started by run.py, which pins BLAS and OpenMP to one thread and
puts the checkout's src/ on PYTHONPATH.

The process first times its own set-up: importing diagmap (numpy
included) and the lazy curve set-up that the first curve evaluation runs.

    worker.py --setup-only
    worker.py --workload NAME --seed N --seconds S --trace 0|1

The CSV export of curve_export and the spans of a traced run go to
.perfbench_out/ in the checkout.
"""

import time

_T0 = time.perf_counter()

import diagmap  # noqa: E402
import diagmap.cli  # noqa: E402
from diagmap import symmetric_curve  # noqa: E402

symmetric_curve.entanglement_entropy(0.0)
SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUTDIR = ROOT / ".perfbench_out"


def library_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "diagmap_file": diagmap.__file__,
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def sampled_pass(workload):
    """One timed pass with the reference kernel sampled during it: returns
    the pass (its times leave the sampling out), its time in reference
    units and the kernel time it was divided by."""
    with RefClock() as ref:
        done = workload.run_pass(ref.now)
    kernel_s = ref.kernel_s
    return done, done.wall_s / kernel_s, kernel_s


def timed_passes(workload, seconds: float):
    """Run the timed pass as often as the workload's nominal pass time fits
    into the budget, at least once.  The count depends on the budget only,
    so every run of a workload measures the same work.  Only the first
    pass's results are kept; every later pass must reproduce them bit for
    bit.  Returns (first pass, its fingerprint, pass times, pass times in
    reference units, kernel times, item times, whether the passes
    agreed)."""
    first, wall_ref, kernel_s = sampled_pass(workload)
    fingerprint = workload.fingerprint(first.results)
    walls, walls_ref, kernels = [first.wall_s], [wall_ref], [kernel_s]
    items, repeatable = list(first.item_s), True
    for _ in range(max(1, round(seconds / workload.PASS_S)) - 1):
        again, wall_ref, kernel_s = sampled_pass(workload)
        walls.append(again.wall_s)
        walls_ref.append(wall_ref)
        kernels.append(kernel_s)
        items += again.item_s
        repeatable = repeatable and workload.fingerprint(again.results) == fingerprint
    return first, fingerprint, walls, walls_ref, kernels, items, repeatable


def run(args) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.seed, OUTDIR)
    # a traced run spends half its budget on the untraced reference passes
    first, fingerprint, walls, walls_ref, kernels, items, repeatable = timed_passes(
        workload, args.seconds / 2 if args.trace else args.seconds
    )
    chk = workload.check(first.results)
    out = {
        "setup_s": SETUP_S,
        "pass_wall_s": walls,
        "pass_wall_ref": walls_ref,
        "ref_kernel_s": kernels,
        "item_s": items,
        "items_per_pass": len(first.item_s),
        "attempted": chk.attempted * len(walls),
        "failed": chk.failed * len(walls),
        "max_err": chk.max_err,
        "mean_gap": chk.mean_gap,
        "failures": chk.notes,
        "repeatable": repeatable,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "library": library_info(),
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.root():
                traced = workload.run_pass(time.perf_counter)
        finally:
            out["restored"] = tracer.restore()
        out["bit_identical"] = workload.fingerprint(traced.results) == fingerprint
        out["traced_wall_s"] = traced.wall_s
        out["trace"] = tracer.summary()
        tracer.save(OUTDIR / f"spans-{args.workload}.npz")
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    if not Path(diagmap.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: diagmap imported from {diagmap.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = {"setup_s": SETUP_S} if args.setup_only else run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
