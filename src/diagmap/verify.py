"""Named verification suites behind the `verify` CLI command.

Each check pins one acceptance-level claim: the tangency point and
convex envelope of the entanglement curve, the face-minimum table and its
bifurcation, the Lambert-W machinery, oracle/closed-form agreement, and the
projection inequality of the symmetry reduction.  A check only computes
numbers: it returns a CheckResult holding one Measure (label, measured
value, tolerance) for each quantity it bounds, and a boolean condition
enters as a count of its violations with tolerance 0.  One rule,
Measure.passed, decides every measurement: value < tol, or value == tol ==
0, so a tolerance of 0 demands an exact zero and NaN fails.  A check passes
when all its measurements do, and its report prints each value with its
tolerance and margin.  This is the only place an acceptance check is
written: the acceptance tests run every function in SUITES, each under one
criterion.  An identity of the code, such as a literal read back or the
value a search starts from, is pinned by a unit test, not by a check, and
so is a theorem about every state, such as the entropy gain of the
diagonal channel.  The oracle checks call each search with no budget, seed
or length, so they check what a library user gets; only the projection
inequality, sound at any budget, sets a small one.
"""

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import face_minimum as fm
from . import states as st
from . import symmetric_curve as sc
from .entropy import LN2, TINY
from .lambert import BRANCH_POINT, lambert_w0, lambert_wm1
from .linesearch import brute_force_min_face, stream_rng
from .roof import roof_upper_bound

# z*, s(z*), the one-vs-rest value log 7 - (5/7) log 6 at N = 7 and the
# angle transition (the zero of the theta-curvature at theta = 0) to 20
# digits, pinned in tests/test_references.py
ZSTAR_REF = "-0.40794967106988114064"
S_ZSTAR_REF = "0.47001639914469718633"
ONE_VS_REST_7_REF = "0.66608195674955973310"
THETA_TRANSITION_REF = "-0.41502277550100712185"


def _num(x) -> str:
    return str(x) if isinstance(x, (int, np.integer)) else f"{x:.2e}"


@dataclass(frozen=True)
class Measure:
    """One measured value and its tolerance.  It passes when value < tol, or
    when value == tol == 0: a tolerance of 0 makes an exact check, as for a
    count of violations.  NaN fails."""

    label: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.value < self.tol or self.value == self.tol == 0)

    def __str__(self) -> str:
        return f"{self.label} {_num(self.value)} (tol {self.tol:g}, margin {_num(self.tol - self.value)})"

    def record(self) -> dict:
        numbers = (float(x) if math.isfinite(x) else None for x in (self.value, self.tol, self.tol - self.value))
        return dict(zip(("label", "value", "tolerance", "margin"), (self.label, *numbers)))


@dataclass(frozen=True)
class CheckResult:
    """A check's name, measurements and seconds taken (set by run_suite); it
    passes when it has measurements and every one passes.  In its record,
    the JSON form, NaN and the infinities, which JSON lacks, are None."""

    name: str
    measures: tuple
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return bool(self.measures) and all(m.passed for m in self.measures)

    @property
    def detail(self) -> str:
        return "; ".join(map(str, self.measures))

    def record(self) -> dict:
        measures = [m.record() for m in self.measures]
        return dict(name=self.name, passed=self.passed, elapsed=self.elapsed, measures=measures)


def _random_qutrit(g: "np.random.Generator") -> np.ndarray:
    a = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
    omega = a @ a.conj().T
    return omega / np.trace(omega).real


# ---------------------------------------------------------------------------
# entanglement-curve checks
# ---------------------------------------------------------------------------

def check_lower_tangency() -> CheckResult:
    zstar = sc.lower_tangent_z()
    return CheckResult(
        "lower tangency point",
        (
            Measure("|z* - ref|", abs(zstar - float(ZSTAR_REF)), 1e-15),
            Measure("|s(z*) - ref|", abs(sc.one_vs_rest_entropy(zstar, 3) - float(S_ZSTAR_REF)), 1e-15),
        ),
    )


def check_theta_transition() -> CheckResult:
    err = abs(sc.theta_transition() - float(THETA_TRANSITION_REF))
    return CheckResult("angle transition", (Measure("|transition - ref|", err, 1e-15),))


def check_convex_envelope() -> CheckResult:
    """E is the lower convex envelope of epsilon.  E <= epsilon, E = epsilon
    at each chord end (-1/2, z*, 5/6 and 1), and E is convex: epsilon's
    slope rises on [z*, 5/6], where E = epsilon, and each chord has that
    slope where it meets the curve.  A convex g <= epsilon then lies below
    each chord, whose ends have g <= epsilon = E, so no convex minorant
    exceeds E.  E <= epsilon and the slope order are sampled on a grid; a
    certified minimum of epsilon, or epsilon in closed form, would prove
    them everywhere."""
    zs = np.linspace(sc.Z_MIN, sc.Z_MAX, 1351).tolist()
    over = [sc.entanglement_entropy(z) - sc.min_pure_output_entropy(z)[0] for z in zs]
    zstar, knee = sc.lower_tangent_z(), sc.UPPER_KNEE
    # the (z, value) ends that E mixes, read at a z inside each chord
    chords = [
        [(z_end, sc._envelope(((1.0, z_end, 0.0, v),))) for _, z_end, _, v in sc._piece(z)[1]]
        for z in (0.5 * (sc.Z_MIN + zstar), 0.5 * (knee + sc.Z_MAX))
    ]
    ends = [abs(v - sc.min_pure_output_entropy(z)[0]) for chord in chords for z, v in chord]
    # the chords meet the curve at z* and 5/6
    slopes = [(y1 - y0) / (z1 - z0) for (z0, y0), (z1, y1) in chords]
    tangency = [abs(m - sc._one_vs_rest_slope(z, 3)) for m, z in zip(slopes, (zstar, knee))]
    # the slope formula is 0 log 0 at z = 0, where the slope passes through
    # 0; between neighbours it rises by 2.0e-4 at least, far above rise
    curve_slopes = [sc._one_vs_rest_slope(z, 3) for z in zs if zstar <= z <= knee and z != 0.0]
    rise = 1e-6
    slow = np.count_nonzero(~(np.diff(curve_slopes) > rise))  # a NaN counts
    return CheckResult(
        "E is the lower convex envelope of epsilon",
        (
            Measure(f"max (E - epsilon) on {len(zs)} points", np.max(over), 1e-15),
            Measure("max |chord end - epsilon| at -1/2, z*, 5/6, 1", np.max(ends), 1e-15),
            Measure("max |chord slope - curve slope| at z*, 5/6", np.max(tangency), 2e-14),
            Measure(f"slope rises below {rise:g} on [z*, 5/6]", slow, 0),
        ),
    )


def check_decompositions() -> CheckResult:
    n_grid = 50
    recon = []
    avg = []
    lengths = set()
    for z in np.linspace(sc.Z_MIN, sc.Z_MAX, n_grid):
        dec = st.optimal_decomposition(float(z))
        lengths.add(len(dec))
        recon.append(np.max(np.abs(dec.mixture() - st.symmetric_state(float(z)))))
        avg.append(abs(dec.average_output_entropy() - sc.entanglement_entropy(float(z))))
    # the grid meets lengths 3 and 6; one point on each linear piece: two
    # orbits (6 states) below z*, an orbit plus a pure state (4) above 5/6
    pieces = ((0.5 * (sc.lower_tangent_z() + sc.Z_MIN), 6), (0.95, 4))
    misses = len({3, 6} - lengths) + sum(len(st.optimal_decomposition(z)) != n for z, n in pieces)
    return CheckResult(
        f"optimal decompositions on {n_grid} grid points",
        (
            Measure("max reconstruction error", np.max(recon), 2e-15),
            Measure("max |entropy average - E|", np.max(avg), 2e-15),
            Measure("missing or wrong lengths", misses, 0),
        ),
    )


# ---------------------------------------------------------------------------
# face-minimum checks
# ---------------------------------------------------------------------------

def check_face_table() -> CheckResult:
    closed = np.array([fm.min_face_entropy(n) for n in range(2, 33)])
    values = np.array([brute_force_min_face(n)[0] for n in range(2, 33)])
    return CheckResult(
        "face-minimum table, search N = 2..32",
        (
            Measure("|closed - log 2|, N = 2..6", np.max(np.abs(closed[:5] - LN2)), 1e-15),
            Measure("max |search - closed|", np.max(np.abs(values - closed)), 1e-14),
            Measure("max undercut", np.max(closed - values, initial=0.0), 1e-14),
        ),
    )


def check_bifurcation() -> CheckResult:
    # the one-vs-rest family's value on either side of the crossover
    at6 = fm.two_value_entropy(6, 1)
    at7 = fm.two_value_entropy(7, 1)
    # the closed form vanishes like (2 ln N + 1)/N - 3/(2N^2), whose
    # truncation is 2/(3N^3): 2.3e-14 relative at N = 10^6
    large_errs = [
        abs(fm.min_face_entropy(n) / ((2.0 * math.log(n) + 1.0) / n - 1.5 / n**2) - 1.0) for n in (10**6, 10**12)
    ]
    return CheckResult(
        "family crossover between N = 6 and N = 7",
        (
            Measure("one-vs-rest on the wrong side of log 2", int(not at6 > LN2) + int(not at7 < LN2), 0),
            Measure("|one-vs-rest(7) - ref|", abs(at7 - float(ONE_VS_REST_7_REF)), 1e-15),
            Measure("max rel. |closed - expansion|, N = 10^6, 10^12", np.max(large_errs), 1e-12),
        ),
    )


def check_minimizer_states() -> CheckResult:
    miscounts = 0
    entropy_errs = []
    resids = []
    for n in range(2, 13):
        closed = fm.min_face_entropy(n)
        states = st.minimizer_states(n)
        miscounts += len(states) != (n * (n - 1) // 2 if n <= 6 else n)
        for v in states:
            entropy_errs.append(abs(st.diagonal_output_entropy(np.outer(v, v)) - closed))
            # stationarity: x log x^2 = lam + mu x for some multipliers
            rhs = np.where(np.abs(v) > 0, v * np.log(np.maximum(v * v, TINY)), 0.0)
            design = np.stack([np.ones_like(v), v], axis=1)
            coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
            resids.append(np.max(np.abs(design @ coef - rhs)))
    return CheckResult(
        "minimizer states: entropy and stationarity",
        (
            Measure("state-count mismatches", miscounts, 0),
            Measure("max entropy deviation", np.max(entropy_errs), 1e-14),
            Measure("max stationarity residual", np.max(resids), 1e-14),
        ),
    )


def check_two_value_concavity() -> CheckResult:
    rows = [(n_dim, np.arange(1, n_dim)) for n_dim in range(3, 51)]
    values = [np.array([fm.two_value_entropy(n_dim, int(n)) for n in ns]) for n_dim, ns in rows]
    second = [np.diff(v, 2) for v in values]
    # the formula of the two-value states, unfolded: log N - (1 - 2n/N) log(N/n - 1)
    direct = [np.log(n_dim) - (1.0 - 2.0 * ns / n_dim) * np.log(n_dim / ns - 1.0) for n_dim, ns in rows]
    return CheckResult(
        "two-value entropy concave and equal to its formula, N <= 50",
        (
            Measure("max second difference", np.max(np.concatenate(second)), 1e-12),
            Measure(
                "max |value - formula|",
                np.max(np.abs(np.concatenate(values) - np.concatenate(direct))),
                1e-13,
            ),
        ),
    )


def _w_residual(branch, x) -> float:
    w = branch(float(x))
    return abs(w * math.exp(w) - x) / max(1.0, abs(x))


def check_lambert() -> CheckResult:
    inv_e = -BRANCH_POINT
    xs0 = np.concatenate(
        [
            np.logspace(-300, 6, 400),
            -inv_e + np.logspace(-15, math.log10(inv_e) - 1e-9, 300),
            -np.logspace(-300, math.log10(inv_e) - 1e-6, 300),
        ]
    )
    us = np.logspace(math.log10(1.0 + 1e-9), math.log10(690.0), 500)
    xsm = np.concatenate([-np.exp(-us), -inv_e + np.logspace(-15, math.log10(inv_e) - 0.05, 500)])
    identity = [_w_residual(lambert_w0, x) for x in xs0] + [_w_residual(lambert_wm1, x) for x in xsm]
    g = stream_rng(17, 0)
    root_resids = []
    count = 0
    while count < 200:
        lam = float(g.uniform(-2.0, 2.0))
        if abs(lam) < 1e-3:
            continue
        mu = float(g.uniform(-3.0, 3.0))
        roots = fm.lagrange_roots(lam, mu)
        for x in roots.roots:
            root_resids.append(abs(lam + mu * x - x * math.log(x * x)))
        count += 1
    # three-root stationary states have e^mu g(zeta) <= 1 and entropy -mu > log 2 if g > 2
    zetas = np.linspace(3e-4, inv_e, 1000)
    gvals = np.array([fm.root_square_sum(float(zz)) for zz in zetas])
    g_misses = np.count_nonzero(~(gvals > 2.0)) + np.count_nonzero(~(np.diff(gvals) > 0.0))
    return CheckResult(
        "Lambert branches, stationary roots, branch square sum",
        (
            Measure("max identity residual, both branches", np.max(identity), 1e-14),
            Measure("max root residual", np.max(root_resids, initial=0.0), 4e-14),
            Measure("square sum not above 2 or not increasing", g_misses, 0),
        ),
    )


# ---------------------------------------------------------------------------
# oracle agreement checks
# ---------------------------------------------------------------------------

_CURVE_SAMPLES = (
    -0.5, -0.48, -0.46, -0.44, -0.42, -0.41,
    -0.35, -0.25, -0.1, 0.0, 0.15, 0.3, 0.45, 0.6, 0.75, sc.UPPER_KNEE,
    0.87, 0.92, 0.96, 1.0,
)


def check_oracle_curve() -> CheckResult:
    values = np.array([roof_upper_bound(st.symmetric_state(z)).value for z in _CURVE_SAMPLES])
    ed = np.array([sc.entanglement_entropy(z) for z in _CURVE_SAMPLES])
    return CheckResult(
        f"decomposition search matches the curve at {len(_CURVE_SAMPLES)} points",
        (
            Measure("max |search - curve|", np.max(np.abs(values - ed)), 3e-14),
            Measure("max undercut", np.max(ed - values, initial=0.0), 3e-14),
        ),
    )


def check_oracle_rank2() -> CheckResult:
    n_states = 10
    g = stream_rng(13, 1)
    devs = []
    for _ in range(n_states):
        z = float(g.uniform(0.15, 0.85))
        phi = float(g.uniform(0.0, 2.0 * math.pi))
        a, b = math.cos(phi), math.sin(phi)
        x = float(g.uniform(-0.95, 0.95)) * math.sqrt(z * (1.0 - z))
        closed = sc.rank2_entanglement(z, x, a, b)
        devs.append(abs(roof_upper_bound(st.rank2_state(z, x, a, b)).value - closed))
    return CheckResult(
        f"decomposition search matches the rank-2 closed form on {n_states} states",
        (Measure("max |search - closed|", np.max(devs), 5e-15),),
    )


def check_projection_inequality() -> CheckResult:
    # the search value is the average of an explicit decomposition, so the
    # inequality is sound at any search budget; keep the budget small
    n_states = 100
    shortfalls = []
    for i in range(n_states):
        omega = _random_qutrit(stream_rng(29, i))
        bound = roof_upper_bound(omega, m=3, restarts=2, seed=29, max_sweeps=40).value
        shortfalls.append(sc.entanglement_entropy(st.twirl_s3(omega)) - bound)
    return CheckResult(
        f"search bound never beats the twirled curve on {n_states} random states",
        (Measure("max (twirled curve - search)", np.max(shortfalls), 1e-6),),
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITES = {
    "theorem4": (
        check_face_table,
        check_bifurcation,
        check_minimizer_states,
        check_two_value_concavity,
        check_lambert,
    ),
    "edcurve": (
        check_lower_tangency,
        check_theta_transition,
        check_convex_envelope,
        check_decompositions,
    ),
    "rank2": (
        check_oracle_curve,
        check_oracle_rank2,
    ),
    "symmetry": (
        check_projection_inequality,
    ),
}


def run_suite(name: str):
    """Run one named suite (or "all"); returns the list of CheckResults."""
    if name == "all":
        checks = list(itertools.chain.from_iterable(SUITES.values()))
    elif name in SUITES:
        checks = list(SUITES[name])
    else:
        raise ValueError(f"unknown suite {name!r}; choose from all, {', '.join(SUITES)}")
    results = []
    for check in checks:
        t0 = time.perf_counter()
        results.append(replace(check(), elapsed=time.perf_counter() - t0))
    return results
