"""Command-line interface.

Subcommands:
  ed-curve       CSV of the entanglement-entropy curve over a z grid
  min-output     face-minimum report for a given dimension
  zstar          tangency point, its value and the angle transition
  roof-estimate  decomposition-search upper bound for a state read from file
  verify         run the named verification suites (--json: one record per check)

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 input
parse error, 141 (128 + SIGPIPE, as a shell reports a process that
SIGPIPE ended) when the reader of standard output closed it early.

Importing this module loads neither numpy nor json, and ed-curve, zstar and
min-output without --oracle load no numpy: the modules that load it (the
face search in `linesearch`, the roof search, the data layer `states` and
verify) are imported inside the commands, and the branches, that use them.
Only verify --json loads json.
"""

import argparse
import itertools
import os
import sys

from . import symmetric_curve as sc
from .entropy import LN2

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BROKEN_PIPE = 141

# the suites of verify.SUITES, after "all"; named here so that building the
# parser does not import verify
SUITE_NAMES = ("all", "theorem4", "edcurve", "rank2", "symmetry")


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagmap",
        description="Entanglement entropy of the diagonal (pinching) channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    units = argparse.ArgumentParser(add_help=False)
    units.add_argument("--units", choices=("nats", "bits"), default="nats")

    p_curve = sub.add_parser(
        "ed-curve", parents=[units], help="emit the curve as CSV (z, epsilon, theta_min, ed, region)"
    )
    p_curve.add_argument("--z-min", type=float, default=sc.Z_MIN)
    p_curve.add_argument("--z-max", type=float, default=sc.Z_MAX)
    p_curve.add_argument("--z-step", type=float, default=sc.Z_STEP)
    p_curve.add_argument("--out", metavar="FILE", default=None)

    p_min = sub.add_parser("min-output", parents=[units], help="minimal output entropy on the zero-sum face")
    p_min.add_argument("--n", type=int, required=True, help="Hilbert-space dimension N >= 2")
    p_min.add_argument("--oracle", action="store_true", help="also run the brute-force search")

    sub.add_parser("zstar", parents=[units], help="report the lower tangency point and angle transition")

    p_roof = sub.add_parser(
        "roof-estimate", parents=[units], help="decomposition-search upper bound for a state file"
    )
    p_roof.add_argument("input_path", metavar="FILE")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", nargs="?", default="all", choices=SUITE_NAMES)
    p_verify.add_argument("--json", action="store_true", help="print one JSON record per check and line")
    return parser


def _unit_scale(units: str) -> float:
    return 1.0 / LN2 if units == "bits" else 1.0


def cmd_ed_curve(args) -> int:
    try:
        zs = sc.z_grid(args.z_min, args.z_max, args.z_step)
    except (ValueError, MemoryError) as exc:  # MemoryError: a step too fine to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    scale = _unit_scale(args.units)
    lines = ["z,epsilon,theta_min,ed,region"]
    for z, epsilon, theta_min, ed, region in map(sc.curve_record, zs):
        # _fmt's format: %.9g writes a float as f"{x:.9g}" does, in one %-format per row
        lines.append("%.9g,%.9g,%.9g,%.9g,%s" % (z, epsilon * scale, theta_min, ed * scale, region))
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_min_output(args) -> int:
    from . import face_minimum as fm

    n = args.n
    try:
        closed = fm.min_face_entropy(n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    scale = _unit_scale(args.units)
    pairs = fm.pair_states_minimize(n)
    family = "pair states" if pairs else "one-vs-rest"
    count = n * (n - 1) // 2 if pairs else n
    print(f"N = {n}")
    print(f"closed-form minimum: {_fmt(closed * scale)} {args.units}")
    print(f"winning family: {family}")
    print(f"minimizer states ({count}):")
    try:
        # only the printed states are built: there are O(N) of length N
        for v in itertools.islice(fm._minimizers(n), 10):
            print("  (" + ", ".join(_fmt(x) for x in v) + ")")
        if count > 10:
            print(f"  ... {count - 10} more by permutation")
        if args.oracle:
            from .linesearch import brute_force_min_face

            value, argmin = brute_force_min_face(n)
            print(f"search minimum: {_fmt(value * scale)} {args.units}")
            print(f"gap to closed form: {_fmt((value - closed) * scale)}")
            print("argmin: (" + ", ".join(_fmt(x) for x in argmin) + ")")
    except MemoryError as exc:  # states of length N too long to allocate
        print(f"error: --n {n} is too large to allocate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_zstar(args) -> int:
    scale = _unit_scale(args.units)
    zstar = sc.lower_tangent_z()
    s_star = sc.theta0_entropy(zstar)
    slope = (s_star - LN2) / (zstar - sc.Z_MIN)
    transition = sc.theta_transition()
    print(f"tangency point z* = {_fmt(zstar)}")
    print(f"curve value at z*: {_fmt(s_star * scale)} {args.units}")
    print(f"tangent slope: {_fmt(slope * scale)} {args.units} per unit z")
    print(f"angle transition at z = {_fmt(transition)}")
    return EXIT_OK


def cmd_roof_estimate(args) -> int:
    from . import roof, states

    try:
        omega = states.read_density_matrix(args.input_path)
    except OSError as exc:
        print(f"error: cannot read {args.input_path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except states.StateFormatError as exc:
        print(f"error: {args.input_path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    scale = _unit_scale(args.units)
    try:
        result = roof.roof_upper_bound(omega)
    except (ValueError, MemoryError) as exc:  # MemoryError: a state too large for the search's dense estimates
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"upper bound: {_fmt(result.value * scale)} {args.units}")
    print(
        f"search: {result.sweeps} sweeps, {result.insertions} insertions, "
        f"capped: {'yes' if result.capped else 'no'}"
    )
    dec = result.decomposition
    print(f"decomposition ({len(dec)} states):")
    for w, s in zip(dec.weights, dec.states):
        amps = ", ".join(f"{v.real:.6g}{v.imag:+.6g}j" for v in s)
        print(f"  weight {_fmt(w)}: ({amps})")
    if omega.shape == (3, 3):
        z = states.twirl_s3(omega)
        ref = sc.entanglement_entropy(z)
        print(f"twirl parameter z = {_fmt(z)}")
        print(f"symmetric-family value at z: {_fmt(ref * scale)} {args.units} (lower bound for this state)")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite)
    failed = sum(not res.passed for res in results)
    if args.json:
        import json  # only verify --json writes JSON

        for res in results:
            print(json.dumps(res.record()))
    else:
        for res in results:
            tag = "PASS" if res.passed else "FAIL"
            print(f"{tag}  {res.name}: {res.detail}")
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "ed-curve": cmd_ed_curve,
        "min-output": cmd_min_output,
        "zstar": cmd_zstar,
        "roof-estimate": cmd_roof_estimate,
        "verify": cmd_verify,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # inside the try: a reader gone before the flush is a broken pipe too
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, so that the flush at
        # exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
