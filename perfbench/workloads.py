"""The four benchmark workloads.

A workload turns the workload seed into a fixed list of inputs when it is
built, computes every result in one timed pass (`run_pass`, which reads the
time from the clock it is given), and checks the results against a closed
form or a sound lower bound (`check`) outside the timed section.  Every
search receives m, restarts, seed and max_sweeps explicitly, so a change of
a library default cannot change the work that is measured.  Library
functions are always looked up through their module at call time, so the
tracer's patched bindings are the ones called.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from diagmap import cli, face_minimum, hull, roof, states, symmetric_curve

# Tolerances of verify.py, none looser.
CURVE_UNDERCUT_TOL = 1e-9    # check_oracle_curve: worst undercut
CURVE_EXCESS_TOL = 1e-5      # check_oracle_curve: worst |search - curve|
BOUND_UNDERCUT_TOL = 1e-9    # bound below a sound lower bound (check_projection_inequality: 1e-6)
FACE_GAP_TOL = 1e-6          # check_face_table
FACE_UNDERCUT_TOL = 1e-9     # check_face_table
FACE_STATE_TOL = 1e-12       # check_minimizer_states
RECON_TOL = 1e-9             # check_decompositions: reconstruction
AVERAGE_TOL = 1e-8           # check_decompositions: entropy average
HULL_TOL = 2e-4              # check_curve_hull_agreement
ROOT_RESIDUAL_TOL = 1e-9     # check_lambert: stationary-root residual
CSV_DIGITS_TOL = 5e-9        # relative rounding of a 9-significant-digit field

# Errors below this are round-off; flooring keeps a reordered sum from
# reading as a regression.
ERR_FLOOR = 1e-12


def item_seed(seed: int, item: int) -> int:
    """Search seed of one item, drawn from Philox keyed by (workload seed, item)."""
    g = Generator(Philox(key=np.array([seed, item], dtype=np.uint64)))
    return int(g.integers(2**31))


@dataclass
class PassResult:
    """What one timed pass produced: its wall time, the time of each item
    and the results, in input order."""

    wall_s: float
    item_s: list
    results: list


@dataclass
class Check:
    """Outcome of checking one pass.  max_err is floored at ERR_FLOOR;
    mean_gap is the mean distance of each checked result from its
    reference (closed form or sound lower bound)."""

    attempted: int = 0
    failed: int = 0
    max_err: float = ERR_FLOOR
    gaps: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def item(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)

    def error(self, err: float) -> None:
        self.max_err = max(self.max_err, abs(err))

    @property
    def mean_gap(self) -> float:
        return float(np.mean(self.gaps)) if self.gaps else 0.0


def _call(clock, fn, *args, **kwargs):
    """Run one item; an exception becomes the item's result."""
    t0 = clock()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # a raising item counts as failed in check()
        out = exc
    return out, clock() - t0


def _roof_fingerprint(res) -> bytes:
    if isinstance(res, Exception):
        return repr(res).encode()
    dec = res.decomposition
    parts = [repr(res.value).encode(), np.ascontiguousarray(res.isometry).tobytes(), dec.weights.tobytes()]
    parts += [np.asarray(s).tobytes() for s in dec.states]
    return b"|".join(parts)


class RoofCurve:
    """Real roof searches on symmetric states at four points of the curve:
    the lower chord, the stalling point next to z*, the analytic interior
    and the upper chord.  The two points below z* run to the sweep cap, so
    this is the long, per-call-overhead-bound search."""

    name = "roof_curve"
    PASS_S = 17.0  # nominal pass time; worker.timed_passes sets the pass count from it
    # all four are _CURVE_SAMPLES of verify.check_oracle_curve
    POINTS = (-0.44, -0.41, 0.3, 0.92)
    M, RESTARTS, MAX_SWEEPS = 6, 32, 150

    def __init__(self, seed: int, workdir):
        self.inputs = [
            (z, states.symmetric_state(z).real, item_seed(seed, i)) for i, z in enumerate(self.POINTS)
        ]

    def run_pass(self, clock) -> PassResult:
        results, item_s = [], []
        t0 = clock()
        for _, omega, s in self.inputs:
            res, dt = _call(
                clock,
                roof.real_roof_upper_bound, omega, m=self.M, restarts=self.RESTARTS, seed=s, max_sweeps=self.MAX_SWEEPS
            )
            results.append(res)
            item_s.append(dt)
        return PassResult(clock() - t0, item_s, results)

    def check(self, results) -> Check:
        chk = Check()
        for (z, _, _), res in zip(self.inputs, results):
            if isinstance(res, Exception):
                chk.item(False, f"z={z}: {res!r}")
                continue
            err = res.value - symmetric_curve.entanglement_entropy(z)
            chk.error(err)
            chk.gaps.append(abs(err))
            chk.item(-CURVE_UNDERCUT_TOL <= err <= CURVE_EXCESS_TOL, f"z={z}: search - curve = {err:.3e}")
        return chk

    def fingerprint(self, results) -> list:
        return [_roof_fingerprint(r) for r in results]


def random_full_rank_qutrit(g: Generator) -> np.ndarray:
    """Complex Gaussian A, normalised A A^H: full rank with probability one."""
    a = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
    omega = a @ a.conj().T
    return omega / np.trace(omega).real


class RoofRandom:
    """Complex roof searches on seeded random full-rank qutrit states with the
    m and restarts of verify.check_projection_inequality: short searches
    with a batch of two, complex phase moves and per-call validation.

    The sweep cap is 10 rather than the check's 40.  At 40 a search takes
    anywhere from 0.2 to 1 s depending on when the state converges, and the
    share of states that run to the cap moved the time of 50 states by a
    fifth from seed to seed; at 10 nearly every search runs to the cap, 100
    states fit into one pass, and the mean gap to the lower bound agreed
    with the 40-sweep value to four digits on the states tried."""

    name = "roof_random"
    PASS_S = 22.0
    STATES = 100
    M, RESTARTS, MAX_SWEEPS = 3, 2, 10

    def __init__(self, seed: int, workdir):
        self.inputs = []
        for i in range(self.STATES):
            g = Generator(Philox(key=np.array([seed, i], dtype=np.uint64)))
            self.inputs.append((random_full_rank_qutrit(g), item_seed(seed, i)))

    def run_pass(self, clock) -> PassResult:
        results, item_s = [], []
        t0 = clock()
        for omega, s in self.inputs:
            res, dt = _call(
                clock,
                roof.roof_upper_bound, omega, m=self.M, restarts=self.RESTARTS, seed=s, max_sweeps=self.MAX_SWEEPS
            )
            results.append(res)
            item_s.append(dt)
        return PassResult(clock() - t0, item_s, results)

    @staticmethod
    def lower_bound(omega) -> float:
        """max(E(twirl(omega)), S(D(omega)) - S(omega)): the symmetric curve
        at the twirl parameter and the relative entropy of coherence."""
        twirl = symmetric_curve.entanglement_entropy(states.twirl_s3(omega))
        coherence = states.diagonal_output_entropy(omega) - states.von_neumann_entropy(omega)
        return max(twirl, coherence)

    def check(self, results) -> Check:
        chk = Check()
        for i, ((omega, _), res) in enumerate(zip(self.inputs, results)):
            if isinstance(res, Exception):
                chk.item(False, f"state {i}: {res!r}")
                continue
            lower = self.lower_bound(omega)
            # no closed form here: the only observable error is a bound below the lower bound
            chk.error(max(lower - res.value, 0.0))
            chk.gaps.append(res.value - lower)
            chk.item(res.value >= lower - BOUND_UNDERCUT_TOL, f"state {i}: bound {res.value!r} < lower {lower!r}")
        return chk

    def fingerprint(self, results) -> list:
        return [_roof_fingerprint(r) for r in results]


def _face_entropy(v: np.ndarray) -> float:
    p = v * v
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


class FaceOracle:
    """The zero-sum face: brute-force searches on both sides of the
    bifurcation at N = 6, the closed form and its minimizers at the same N,
    and a seeded sweep of the Lambert-W stationary roots."""

    name = "face_oracle"
    PASS_S = 15.0
    DIMENSIONS = (4, 6, 7, 9, 12)
    RESTARTS_PER_DIM = 50
    LAGRANGE_CALLS = 10_000

    def __init__(self, seed: int, workdir):
        self.seeds = [item_seed(seed, i) for i in range(len(self.DIMENSIONS))]
        g = Generator(Philox(key=np.array([seed, len(self.DIMENSIONS)], dtype=np.uint64)))
        # the multiplier ranges of verify.check_lambert; lam = 0 is outside the domain
        lam = g.uniform(-2.0, 2.0, size=2 * self.LAGRANGE_CALLS)
        lam = lam[np.abs(lam) >= 1e-3][: self.LAGRANGE_CALLS]
        mu = g.uniform(-3.0, 3.0, size=lam.size)
        self.multipliers = list(zip(lam.tolist(), mu.tolist()))

    def run_pass(self, clock) -> PassResult:
        results, item_s = [], []
        t0 = clock()
        for n, s in zip(self.DIMENSIONS, self.seeds):
            closed, _ = _call(clock, face_minimum.min_face_entropy, n)
            minimizers, _ = _call(clock, face_minimum.minimizer_states, n)
            search, dt = _call(clock, face_minimum.brute_force_min_face, n, restarts=self.RESTARTS_PER_DIM * n, seed=s)
            results.append((closed, minimizers, search))
            item_s.append(dt)
        roots = [_call(clock, face_minimum.lagrange_roots, lam, mu)[0] for lam, mu in self.multipliers]
        results.append(roots)
        return PassResult(clock() - t0, item_s, results)

    def check(self, results) -> Check:
        chk = Check()
        for n, (closed, minimizers, search) in zip(self.DIMENSIONS, results):
            failed = [repr(x) for x in (closed, minimizers, search) if isinstance(x, Exception)]
            if failed:
                chk.item(False, f"N={n}: {'; '.join(failed)}")
                continue
            value, argmin = search
            err = value - closed
            chk.error(err)
            chk.gaps.append(abs(err))
            state_err = max(abs(_face_entropy(v) - closed) for v in minimizers)
            chk.error(state_err)
            ok = abs(err) <= FACE_GAP_TOL and -err <= FACE_UNDERCUT_TOL and state_err <= FACE_STATE_TOL
            chk.item(ok, f"N={n}: search - closed = {err:.3e}, minimizer entropy off by {state_err:.3e}")
        for (lam, mu), roots in zip(self.multipliers, results[-1]):
            if isinstance(roots, Exception):
                chk.item(False, f"lagrange_roots({lam!r}, {mu!r}): {roots!r}")
                continue
            resid = max(abs(lam + mu * x - x * math.log(x * x)) for x in roots.roots)
            chk.item(resid <= ROOT_RESIDUAL_TOL, f"lagrange_roots({lam!r}, {mu!r}) residual {resid:.3e}")
        return chk

    def fingerprint(self, results) -> list:
        out = []
        for closed, minimizers, search in results[:-1]:
            parts = [repr(closed).encode(), repr(search[0]).encode(), np.asarray(search[1]).tobytes()]
            parts += [np.asarray(v).tobytes() for v in minimizers]
            out.append(b"|".join(parts))
        out.append(repr([(r.x1, r.x2, r.x3) for r in results[-1]]).encode())
        return out


class CurveExport:
    """The curve export at default arguments through the CLI, the hull of
    its epsilon column, and the optimal decomposition at every grid point,
    in an order drawn from the seed.  No search runs here."""

    name = "curve_export"
    PASS_S = 1.25

    def __init__(self, seed: int, workdir):
        self.csv_path = str(workdir / "ed-curve.csv")
        self.zs = symmetric_curve.curve_grid()  # the ed-curve defaults
        g = Generator(Philox(key=np.array([seed, 0], dtype=np.uint64)))
        self.order = g.permutation(self.zs.size)

    def run_pass(self, clock) -> PassResult:
        t0 = clock()
        code, _ = _call(clock, cli.main, ["ed-curve", "--out", self.csv_path])
        with open(self.csv_path, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        eps_hull, _ = _call(
            clock,
            hull.lower_convex_hull,
            hull.SampledCurve(xs=np.array([float(r[0]) for r in rows]), ys=np.array([float(r[1]) for r in rows])),
        )
        decs, item_s = {}, []
        for k in self.order:
            decs[k], dt = _call(clock, symmetric_curve.optimal_decomposition, float(self.zs[k]))
            item_s.append(dt)
        results = [code, rows, eps_hull, [decs[k] for k in range(self.zs.size)]]
        return PassResult(clock() - t0, item_s, results)

    def check(self, results) -> Check:
        code, rows, eps_hull, decs = results
        chk = Check()
        chk.item(code == 0, f"ed-curve exit code {code!r}")
        chk.item(len(rows) == self.zs.size, f"{len(rows)} CSV rows for {self.zs.size} grid points")
        ed = [symmetric_curve.entanglement_entropy(float(z)) for z in self.zs]
        for z, e, row in zip(self.zs, ed, rows):
            ok = len(row) == 5 and row[0] == f"{z:.9g}" and abs(float(row[3]) - e) <= CSV_DIGITS_TOL * abs(e)
            chk.item(ok, f"CSV row {row!r} disagrees with E({z:.9g}) = {e!r}")
        if isinstance(eps_hull, Exception):
            chk.item(False, f"hull: {eps_hull!r}")
        else:
            hull_err = float(np.max(np.abs(eps_hull.hull_ys - np.array(ed))))
            chk.item(hull_err <= HULL_TOL, f"hull of the epsilon column off the curve by {hull_err:.3e}")
        for z, e, dec in zip(self.zs, ed, decs):
            if isinstance(dec, Exception):
                chk.item(False, f"z={z}: {dec!r}")
                continue
            recon = float(np.max(np.abs(dec.mixture() - states.symmetric_state(float(z)))))
            avg = dec.average_output_entropy() - e
            chk.error(recon)
            chk.error(avg)
            chk.gaps.append(abs(avg))
            chk.item(recon <= RECON_TOL and abs(avg) <= AVERAGE_TOL, f"z={z}: reconstruction {recon:.3e}, average {avg:.3e}")
        return chk

    def fingerprint(self, results) -> list:
        code, rows, eps_hull, decs = results
        out = [repr(code).encode(), repr(rows).encode(), eps_hull.hull_ys.tobytes()]
        for dec in decs:
            out.append(dec.weights.tobytes() + b"".join(np.asarray(s).tobytes() for s in dec.states))
        return out


WORKLOADS = {w.name: w for w in (RoofCurve, RoofRandom, FaceOracle, CurveExport)}
