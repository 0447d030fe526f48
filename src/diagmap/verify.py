"""Named verification suites behind the `verify` CLI command.

Each check pins the tolerances of one acceptance-level claim: the anchor
constants and junctions of the entanglement curve, the face-minimum table
and its bifurcation, the Lambert-W machinery, oracle/closed-form
agreement, and the structural property suites.  This is the only place an
acceptance check is written: the acceptance tests run every function in
SUITES, each under one criterion.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import face_minimum as fm
from . import hull as hl
from . import states as st
from . import symmetric_curve as sc
from .entropy import LN2, LN3
from .lambert import lambert_w0, lambert_wm1
from .roof import real_roof_upper_bound, roof_upper_bound

# values quoted with the curve (location of the lower tangency, its height,
# the angle-transition point and the value at the upper knee)
ZSTAR_REF = -0.4079496711
S_ZSTAR_REF = 0.470016
THETA_TRANSITION_REF = -0.4150234
KNEE_VALUE_REF = 0.867563


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _rng(seed: int, stream: int) -> Generator:
    return Generator(Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _random_qutrit(g: Generator) -> np.ndarray:
    a = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
    omega = a @ a.conj().T
    return omega / np.trace(omega).real


# ---------------------------------------------------------------------------
# entanglement-curve checks
# ---------------------------------------------------------------------------

def check_curve_anchors() -> CheckResult:
    worst = np.max(
        [
            abs(sc.entanglement_entropy(-0.5) - LN2),
            abs(sc.entanglement_entropy(0.0) - 0.0),
            abs(sc.entanglement_entropy(1.0) - LN3),
        ]
    )
    return _result(
        "curve anchors at z = -1/2, 0, 1",
        worst < 1e-9,
        f"max deviation {worst:.3e} (tol 1e-9)",
    )


def check_lower_tangency() -> CheckResult:
    zstar = sc.lower_tangent_z()
    s_star = sc.theta0_entropy(zstar)
    ok = abs(zstar - ZSTAR_REF) < 1e-6 and abs(s_star - S_ZSTAR_REF) < 1e-5
    return _result(
        "lower tangency point",
        ok,
        f"z* = {zstar:.10f} (ref {ZSTAR_REF}, tol 1e-6), value {s_star:.6f} (ref {S_ZSTAR_REF}, tol 1e-5)",
    )


def check_theta_transition() -> CheckResult:
    zt = sc.theta_transition()
    _, theta_end = sc.min_pure_output_entropy(-0.5)
    ok = abs(zt - THETA_TRANSITION_REF) < 1e-4 and abs(theta_end - math.pi / 6.0) < 1e-6
    return _result(
        "angle transition",
        ok,
        f"transition {zt:.7f} (ref {THETA_TRANSITION_REF}, tol 1e-4), "
        f"theta_min(-1/2) = {theta_end:.9f} (ref pi/6, tol 1e-6)",
    )


def check_junctions() -> CheckResult:
    knee = sc.UPPER_KNEE
    eps_val, _ = sc.min_pure_output_entropy(knee)
    knee_err = abs(eps_val - sc.UPPER_KNEE_VALUE)
    ref_err = abs(sc.UPPER_KNEE_VALUE - KNEE_VALUE_REF)
    # the closed form joins its upper chord at the theta = 0 entropy
    identity_err = abs(sc.theta0_entropy(knee) - sc.UPPER_KNEE_VALUE)
    zstar = sc.lower_tangent_z()
    jump1 = abs(sc.entanglement_entropy(zstar - 1e-12) - sc.entanglement_entropy(zstar + 1e-12))
    jump2 = abs(sc.entanglement_entropy(knee - 1e-12) - sc.entanglement_entropy(knee + 1e-12))
    ok = knee_err < 1e-6 and ref_err < 1e-6 and identity_err < 1e-10 and jump1 < 1e-10 and jump2 < 1e-10
    return _result(
        "junction values and continuity",
        ok,
        f"epsilon(5/6) off by {knee_err:.3e} (tol 1e-6); knee value off {KNEE_VALUE_REF} by {ref_err:.3e} "
        f"(tol 1e-6); theta0 entropy at 5/6 off by {identity_err:.3e} (tol 1e-10); "
        f"jumps {jump1:.3e}, {jump2:.3e} (tol 1e-10)",
    )


def check_decompositions() -> CheckResult:
    n_grid = 50
    recon = []
    avg = []
    lengths = set()
    for z in np.linspace(-0.5, 1.0, n_grid):
        dec = sc.optimal_decomposition(float(z))
        lengths.add(len(dec))
        recon.append(np.max(np.abs(dec.mixture() - st.symmetric_state(float(z)))))
        avg.append(abs(dec.average_output_entropy() - sc.entanglement_entropy(float(z))))
    worst_recon = np.max(recon)
    worst_avg = np.max(avg)
    # one point on each linear piece: two orbits below z*, orbit plus pure state above 5/6
    two_orbit = len(sc.optimal_decomposition(0.5 * (sc.lower_tangent_z() - 0.5)))
    orbit_plus_pure = len(sc.optimal_decomposition(0.95))
    ok = (
        worst_recon < 1e-9
        and worst_avg < 1e-8
        and {3, 6} <= lengths
        and two_orbit == 6
        and orbit_plus_pure == 4
    )
    return _result(
        f"optimal decompositions on {n_grid} grid points",
        ok,
        f"reconstruction {worst_recon:.3e} (tol 1e-9), entropy average {worst_avg:.3e} (tol 1e-8), "
        f"lengths {sorted(lengths)}, {two_orbit} below z* (expect 6), {orbit_plus_pure} at 0.95 (expect 4)",
    )


def check_curve_hull_agreement() -> CheckResult:
    zs = np.linspace(-0.5, 1.0, 1351)
    eps = np.array([sc.min_pure_output_entropy(float(z))[0] for z in zs])
    hull = hl.lower_convex_hull(hl.SampledCurve(xs=zs, ys=eps))
    ed = np.array([sc.entanglement_entropy(float(z)) for z in zs])
    worst = float(np.max(np.abs(hull.hull_ys - ed)))
    lower_ok = bool(np.all(eps >= ed - 1e-9))
    return _result(
        "curve equals hull of sampled minima",
        worst < 2e-4 and lower_ok,
        f"max |hull - curve| = {worst:.3e} (tol 2e-4), epsilon >= curve: {lower_ok}",
    )


def _hull_curves_and_states():
    """Random inputs of the property checks.

    Returns the curves of check_hull_properties as (xs, ys, index, lift):
    raising ys[index] by lift must not lower the hull.  Twenty curves have
    sorted uniform abscissae (seed 11); ten more have cumulative-sum
    abscissae and normal ordinates (seed 23).  The seed-23 stream then draws
    the twenty qutrit states that check_twirl_and_channel runs next to its
    own.
    """
    g = _rng(11, 0)
    curves = []
    for _ in range(20):
        n = int(g.integers(5, 21))
        xs = np.sort(g.uniform(-2.0, 2.0, size=n))
        while np.any(np.diff(xs) < 1e-9):
            xs = np.sort(g.uniform(-2.0, 2.0, size=n))
        ys = g.uniform(-1.0, 1.0, size=n)
        curves.append((xs, ys, int(g.integers(0, n)), abs(g.uniform(0.1, 1.0))))
    g = _rng(23, 0)
    for _ in range(10):
        n = int(g.integers(5, 21))
        xs = np.cumsum(g.uniform(0.05, 1.0, size=n))
        ys = g.standard_normal(n)
        curves.append((xs, ys, int(g.integers(0, n)), 0.7))
    return curves, [_random_qutrit(g) for _ in range(20)]


def check_hull_properties() -> CheckResult:
    curves, _ = _hull_curves_and_states()
    notes = []
    for xs, ys, idx, lift in curves:
        n = xs.size
        res = hl.lower_convex_hull(hl.SampledCurve(xs=xs, ys=ys))
        again = hl.lower_convex_hull(hl.SampledCurve(xs=xs, ys=res.hull_ys))
        if not np.max(np.abs(again.hull_ys - res.hull_ys)) < 1e-12:
            notes.append("idempotence failed")
            break
        # brute-force epigraph value: best chord over every straddling pair
        brute = np.empty(n)
        for i in range(n):
            best = ys[i]
            for j in range(i + 1):
                for k in range(i, n):
                    if j == k:
                        val = ys[j]
                    else:
                        w = (xs[i] - xs[j]) / (xs[k] - xs[j])
                        val = (1 - w) * ys[j] + w * ys[k]
                    best = min(best, val)
            brute[i] = best
        if not np.max(np.abs(brute - res.hull_ys)) < 1e-9:
            notes.append("epigraph equivalence failed")
            break
        # raising one sample never lowers the hull
        raised = ys.copy()
        raised[idx] += lift
        res2 = hl.lower_convex_hull(hl.SampledCurve(xs=xs, ys=raised))
        if not np.all(res2.hull_ys >= res.hull_ys - 1e-12):
            notes.append("monotonicity failed")
            break
    return _result(
        "hull idempotence, monotonicity, epigraph equivalence",
        not notes,
        "; ".join(notes) if notes else f"{len(curves)} random curves",
    )


# ---------------------------------------------------------------------------
# face-minimum checks
# ---------------------------------------------------------------------------

def check_face_table() -> CheckResult:
    for n in range(2, 7):
        if not abs(fm.min_face_entropy(n) - LN2) < 1e-15:
            return _result("face-minimum table", False, f"N={n} closed form is not log 2 (tol 1e-15)")
    for n in range(7, 13):
        direct = math.log(n) - (1.0 - 2.0 / n) * math.log(n - 1.0)
        if not abs(fm.min_face_entropy(n) - direct) < 1e-13:
            return _result("face-minimum table", False, f"N={n} closed form mismatch (tol 1e-13)")
    values = np.array([fm.brute_force_min_face(n, restarts=50 * n, seed=5)[0] for n in range(2, 33)])
    closed = np.array([fm.min_face_entropy(n) for n in range(2, 33)])
    worst_gap = np.max(np.abs(values - closed))
    worst_under = np.max(closed - values, initial=0.0)
    ok = worst_gap < 1e-6 and worst_under < 1e-9
    return _result(
        "face-minimum table, search N = 2..32",
        ok,
        f"worst |search - closed| = {worst_gap:.3e} (tol 1e-6), worst undercut {worst_under:.3e} (tol 1e-9)",
    )


def check_bifurcation() -> CheckResult:
    # the one-vs-rest family's value on either side of the crossover
    at6 = fm.two_value_entropy(6, 1)
    at7 = fm.two_value_entropy(7, 1)
    err6 = abs(fm.min_face_entropy(6) - LN2)
    err7 = abs(fm.min_face_entropy(7) - at7)
    large = fm.min_face_entropy(10**6)
    ok = (
        at6 > LN2
        and at7 < LN2
        and abs(at7 - 0.666082) < 1e-6
        and err6 < 1e-15
        and err7 < 1e-15
        and abs(large) < 3e-5
    )
    return _result(
        "family crossover between N = 6 and N = 7",
        ok,
        f"one-vs-rest value {at6:.6f} > log2 at N=6, {at7:.6f} < log2 at N=7, "
        f"closed form off by {err6:.1e}/{err7:.1e} (tol 1e-15), value({10**6}) = {large:.2e} (tol 3e-5)",
    )


def check_minimizer_states() -> CheckResult:
    entropy_errs = []
    resids = []
    for n in range(2, 13):
        closed = fm.min_face_entropy(n)
        states = fm.minimizer_states(n)
        expected = n * (n - 1) // 2 if n <= 6 else n
        if len(states) != expected:
            return _result("minimizer states", False, f"N={n}: {len(states)} states, expected {expected}")
        for v in states:
            if not (abs(v.sum()) <= 1e-12 and abs(v @ v - 1.0) <= 1e-12):
                return _result("minimizer states", False, f"N={n}: constraint violation")
            entro = float(fm._face_objective(v * v))
            entropy_errs.append(abs(entro - closed))
            # stationarity: x log x^2 = lam + mu x for some multipliers
            rhs = np.where(np.abs(v) > 0, v * np.log(np.maximum(v * v, 1e-300)), 0.0)
            design = np.stack([np.ones_like(v), v], axis=1)
            coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
            resids.append(np.max(np.abs(design @ coef - rhs)))
    worst_entropy = np.max(entropy_errs)
    worst_resid = np.max(resids)
    ok = worst_entropy < 1e-12 and worst_resid < 1e-8
    return _result(
        "minimizer states: entropy and stationarity",
        ok,
        f"entropy deviation {worst_entropy:.3e} (tol 1e-12), stationarity residual {worst_resid:.3e} (tol 1e-8)",
    )


def check_two_value_concavity() -> CheckResult:
    second = [np.diff([fm.two_value_entropy(n_dim, n) for n in range(1, n_dim)], 2) for n_dim in range(3, 51)]
    worst = np.max(np.concatenate(second))
    sym_ok = all(
        abs(fm.two_value_entropy(n_dim, n) - fm.two_value_entropy(n_dim, n_dim - n)) < 1e-12
        for n_dim in range(3, 51)
        for n in range(1, n_dim)
    )
    ok = worst <= 1e-12 and sym_ok
    return _result(
        "two-value entropy concave and symmetric, N <= 50",
        ok,
        f"max second difference {worst:.3e} (<= 0), symmetry {sym_ok}",
    )


def check_lambert() -> CheckResult:
    inv_e = math.exp(-1.0)
    xs0 = np.concatenate(
        [
            np.logspace(-300, 6, 400),
            -inv_e + np.logspace(-15, math.log10(inv_e) - 1e-9, 300),
            -np.logspace(-300, math.log10(inv_e) - 1e-6, 300),
        ]
    )
    resid0 = []
    for x in xs0:
        w = lambert_w0(float(x))
        resid0.append(abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    us = np.logspace(math.log10(1.0 + 1e-9), math.log10(690.0), 500)
    xsm = np.concatenate([-np.exp(-us), -inv_e + np.logspace(-15, math.log10(inv_e) - 0.05, 500)])
    residm = []
    for x in xsm:
        w = lambert_wm1(float(x))
        residm.append(abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    g = _rng(17, 0)
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
    worst0, worstm, worst_root = np.max(resid0), np.max(residm), np.max(root_resids, initial=0.0)
    zetas = np.linspace(inv_e / 1000.0, inv_e, 1000)
    gvals = np.array([fm.root_square_sum(float(zz)) for zz in zetas])
    g_ok = bool(np.all(gvals > 2.0) and np.all(np.diff(gvals) > 0.0))
    ok = worst0 <= 1e-12 and worstm <= 1e-12 and worst_root <= 1e-9 and g_ok
    return _result(
        "Lambert branches, stationary roots, branch square sum",
        ok,
        f"identity residuals {worst0:.2e}/{worstm:.2e} (tol 1e-12), root residual {worst_root:.2e} (tol 1e-9), "
        f"sum > 2 and increasing: {g_ok}",
    )


def check_three_root_entropy() -> CheckResult:
    inv_e = math.exp(-1.0)
    g = _rng(23, 0)
    checked = 0
    violations = 0
    while checked < 200:
        lam = float(g.uniform(-1.5, 1.5))
        if abs(lam) < 1e-3:
            continue
        mu = float(g.uniform(-3.0, 1.0))
        zeta = 0.5 * abs(lam) * math.exp(-0.5 * mu)
        if zeta > inv_e:
            continue
        # three roots exist iff exp(mu) g(zeta) <= 1; a NaN g counts as a violation
        scaled = math.exp(mu) * fm.root_square_sum(zeta)
        if not (scaled > 1.0 or (scaled <= 1.0 and -mu > LN2)):
            violations += 1
        checked += 1
    return _result(
        "three-root solutions always exceed log 2",
        violations == 0,
        f"{checked} multiplier pairs, {violations} violations",
    )


# ---------------------------------------------------------------------------
# oracle agreement checks
# ---------------------------------------------------------------------------

_CURVE_SAMPLES = (
    -0.5, -0.48, -0.46, -0.44, -0.42, -0.41,
    -0.35, -0.25, -0.1, 0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 5.0 / 6.0,
    0.87, 0.92, 0.96, 1.0,
)


def check_oracle_curve() -> CheckResult:
    values = np.array([real_roof_upper_bound(st.symmetric_state(z).real, m=6, restarts=200, seed=7).value
                       for z in _CURVE_SAMPLES])
    ed = np.array([sc.entanglement_entropy(z) for z in _CURVE_SAMPLES])
    worst = np.max(np.abs(values - ed))
    worst_under = np.max(ed - values, initial=0.0)
    ok = worst < 1e-5 and worst_under < 1e-9
    return _result(
        f"decomposition search matches the curve at {len(_CURVE_SAMPLES)} points",
        ok,
        f"worst |search - curve| = {worst:.3e} (tol 1e-5), worst undercut {worst_under:.3e} (tol 1e-9)",
    )


def check_oracle_rank2() -> CheckResult:
    n_states = 10
    g = _rng(13, 1)
    devs = []
    for _ in range(n_states):
        z = float(g.uniform(0.15, 0.85))
        phi = float(g.uniform(0.0, 2.0 * math.pi))
        a, b = math.cos(phi), math.sin(phi)
        x = float(g.uniform(-0.95, 0.95)) * math.sqrt(z * (1.0 - z))
        omega = sc.rank2_state(z, x, a, b).real
        closed = sc.rank2_entanglement(z, x, a, b)
        res = real_roof_upper_bound(omega, m=4, restarts=80, seed=13)
        devs.append(abs(res.value - closed))
    worst = np.max(devs)
    ok = worst < 1e-5
    return _result(
        f"decomposition search matches the rank-2 closed form on {n_states} states",
        ok,
        f"worst deviation {worst:.3e} (tol 1e-5)",
    )


def check_projection_inequality() -> CheckResult:
    # the search value is the average of an explicit decomposition, so the
    # inequality is sound at any search budget; keep the budget small
    n_states = 100
    shortfalls = []
    for i in range(n_states):
        omega = _random_qutrit(_rng(29, i))
        bound = roof_upper_bound(omega, m=3, restarts=2, seed=29, max_sweeps=40).value
        shortfalls.append(sc.entanglement_entropy(st.twirl_s3(omega)) - bound)
    # a NaN shortfall counts as a violation
    violations = sum(not s <= 1e-6 for s in shortfalls)
    worst = np.max(shortfalls)
    return _result(
        f"search bound never beats the twirled curve on {n_states} random states",
        violations == 0,
        f"{violations} violations, worst shortfall {worst:.3e} (tol 1e-6)",
    )


def check_twirl_and_channel() -> CheckResult:
    worst_twirl = np.max(
        [abs(st.twirl_s3(st.symmetric_state(float(z))) - float(z)) for z in np.linspace(-0.5, 1.0, 101)]
    )
    _, states = _hull_curves_and_states()
    states += [_random_qutrit(_rng(31, i)) for i in range(50)]
    chan = []
    proj = []
    drops = []
    for omega in states:
        d1 = st.diagonal_channel(omega)
        d2 = st.diagonal_channel(d1)
        chan += [np.max(np.abs(d1 - d2)), abs(np.trace(d1) - np.trace(omega))]
        s = st.diagonal_output_entropy(omega)
        proj += [
            abs(s - st.diagonal_output_entropy(omega.T)),
            abs(s - st.diagonal_output_entropy(st.real_projection(omega))),
        ]
        drops.append(st.von_neumann_entropy(omega) - st.von_neumann_entropy(st.diagonal_channel(omega)))
    worst_chan, worst_proj, entropy_drop = np.max(chan), np.max(proj), np.max(drops)
    ok = worst_twirl < 1e-12 and worst_chan == 0.0 and worst_proj == 0.0 and entropy_drop < 1e-9
    return _result(
        "twirl identity, channel idempotence, projection invariance",
        ok,
        f"twirl {worst_twirl:.2e} at 101 points (tol 1e-12); on {len(states)} random states: "
        f"channel {worst_chan:.2e} (exact), projection {worst_proj:.2e} (exact), "
        f"measurement entropy drop {entropy_drop:.2e} (tol 1e-9)",
    )


def check_flat_leaf() -> CheckResult:
    values = []
    for i in range(20):
        p = _rng(37, i).uniform(0.05, 1.0, size=3)
        p /= p.sum()
        values.append(roof_upper_bound(np.diag(p).astype(complex), restarts=4, seed=37).value)
    worst = np.max(values)
    return _result(
        "zero roof on the diagonal-state leaf",
        worst < 1e-9,
        f"worst value {worst:.3e} (tol 1e-9)",
    )


def check_m_monotonicity() -> CheckResult:
    ok = True
    notes = []
    for z in (-0.45, 0.3, 0.9):
        omega = st.symmetric_state(z).real
        prev = real_roof_upper_bound(omega, m=3, restarts=30, seed=41)
        for m in (4, 5, 6):
            pad = np.vstack([prev.isometry, np.zeros((m - prev.isometry.shape[0], prev.isometry.shape[1]))])
            nxt = real_roof_upper_bound(omega, m=m, restarts=30, seed=41, extra_inits=[pad])
            if not nxt.value <= prev.value + 1e-12:
                ok = False
                notes.append(f"z={z}, m={m}: {nxt.value:.9f} > {prev.value:.9f}")
            prev = nxt
    return _result(
        "search value non-increasing in decomposition length",
        ok,
        "; ".join(notes) if notes else "nested starts at m = 3..6, three states",
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
        check_three_root_entropy,
    ),
    "edcurve": (
        check_curve_anchors,
        check_lower_tangency,
        check_theta_transition,
        check_junctions,
        check_decompositions,
        check_curve_hull_agreement,
        check_hull_properties,
    ),
    "rank2": (
        check_oracle_curve,
        check_oracle_rank2,
    ),
    "symmetry": (
        check_twirl_and_channel,
        check_projection_inequality,
        check_flat_leaf,
        check_m_monotonicity,
    ),
}

SUITE_NAMES = ("all",) + tuple(SUITES)


def run_suite(name: str):
    """Run one named suite (or "all"); returns the list of CheckResults."""
    if name == "all":
        checks = list(itertools.chain.from_iterable(SUITES.values()))
    elif name in SUITES:
        checks = list(SUITES[name])
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return [fn() for fn in checks]
