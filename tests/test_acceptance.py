"""Acceptance criteria: the checks of `diagmap verify`, grouped by criterion.

Every acceptance check, with its inputs and tolerances, is written once in
`diagmap.verify`. This file only assigns each function of `verify.SUITES` to
one of nine criteria, runs each criterion within its time budget and prints
one PASS/FAIL line per criterion: run `pytest -s tests/test_acceptance.py`
to see them. `diagmap verify all` runs the same checks through the CLI.
"""

import time
from collections import Counter

from diagmap import verify

# criterion -> (checks, time budget in seconds); test_criterion_<criterion> runs it
CRITERIA = {
    "02_lower_tangency": ((verify.check_lower_tangency,), 0.1),
    "03_theta_transition": ((verify.check_theta_transition,), 0.1),
    "04_junctions": ((verify.check_convex_envelope,), 0.1),
    "05_face_minimum_table": ((verify.check_face_table,), 35.0),
    "06_bifurcation": ((verify.check_bifurcation, verify.check_minimizer_states), 0.2),
    "07_lambert_machinery": ((verify.check_lambert,), 0.3),
    "08_oracle_agreement": (
        (
            verify.check_oracle_curve,
            verify.check_oracle_rank2,
        ),
        25.0,
    ),
    "09_decomposition_validity": ((verify.check_decompositions,), 0.25),
    "10_property_suites": (
        (
            verify.check_twirl_and_channel,
            verify.check_two_value_concavity,
            verify.check_projection_inequality,
        ),
        15.0,
    ),
}


def _run_criterion(name):
    checks, budget = CRITERIA[name]
    t0 = time.perf_counter()
    results = [check() for check in checks]
    elapsed = time.perf_counter() - t0
    passed = all(res.passed for res in results)
    detail = "; ".join(f"{res.name}: {res.detail}" for res in results)
    print(f"{'PASS' if passed else 'FAIL'} criterion {name[:2]}: {detail} [{elapsed:.3f}s]")
    assert passed, detail
    assert elapsed < budget, f"took {elapsed:.3f}s, budget {budget:g}s"


def test_criterion_02_lower_tangency():
    _run_criterion("02_lower_tangency")


def test_criterion_03_theta_transition():
    _run_criterion("03_theta_transition")


def test_criterion_04_junctions():
    _run_criterion("04_junctions")


def test_criterion_05_face_minimum_table():
    _run_criterion("05_face_minimum_table")


def test_criterion_06_bifurcation():
    _run_criterion("06_bifurcation")


def test_criterion_07_lambert_machinery():
    _run_criterion("07_lambert_machinery")


def test_criterion_08_oracle_agreement():
    _run_criterion("08_oracle_agreement")


def test_criterion_09_decomposition_validity():
    _run_criterion("09_decomposition_validity")


def test_criterion_10_property_suites():
    _run_criterion("10_property_suites")


def test_every_check_runs_in_exactly_one_criterion():
    in_criteria = Counter(check.__name__ for checks, _ in CRITERIA.values() for check in checks)
    in_suites = {check.__name__ for checks in verify.SUITES.values() for check in checks}
    assert in_criteria == Counter(in_suites)
    # all([]) passes, so an emptied criterion would pass vacuously
    assert all(checks for checks, _ in CRITERIA.values())
    # and every criterion has its test
    assert {f"test_criterion_{name}" for name in CRITERIA} <= set(globals())
