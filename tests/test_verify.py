"""One rule decides every measurement, and a NaN from the code under test
fails the acceptance check that reads it."""

import math
import types

import numpy as np
import pytest

from diagmap import face_minimum as fm
from diagmap import states as st
from diagmap import symmetric_curve as sc
from diagmap import verify


@pytest.mark.parametrize(
    "check, module, attr, nan_call",
    [
        ("check_decompositions", sc, "entanglement_entropy", 2),
        ("check_minimizer_states", st, "diagonal_output_entropy", 2),
        ("check_bifurcation", fm, "two_value_entropy", 1),
        ("check_bifurcation", fm, "two_value_entropy", 2),
        # the second call feeds no second difference; the fourth does
        ("check_two_value_concavity", fm, "two_value_entropy", 4),
        ("check_lambert", verify, "lambert_w0", 2),
        ("check_lambert", fm, "root_square_sum", 2),
        ("check_twirl_and_channel", st, "twirl_s3", 2),
        ("check_twirl_and_channel", st, "diagonal_channel", 2),
        ("check_twirl_and_channel", st, "von_neumann_entropy", 2),
    ],
)
def test_check_fails_on_one_nan(monkeypatch, check, module, attr, nan_call):
    fn = getattr(module, attr)
    calls = []

    def with_nan(*args, **kwargs):
        calls.append(None)
        out = fn(*args, **kwargs)
        return out * np.nan if len(calls) == nan_call else out

    monkeypatch.setattr(module, attr, with_nan)
    if attr == "diagonal_channel":
        # a NaN state reaches von_neumann_entropy, whose state check raises
        with pytest.raises(ValueError, match="non-finite"):
            getattr(verify, check)()
    else:
        assert not getattr(verify, check)().passed


@pytest.mark.parametrize(
    "check, search, value",
    [
        ("check_projection_inequality", "roof_upper_bound", 10.0),
    ],
)
def test_search_check_fails_on_one_nan(monkeypatch, check, search, value):
    # a search that passes the check except for one NaN value
    calls = []

    def fake_search(omega, **kwargs):
        calls.append(None)
        return types.SimpleNamespace(value=np.nan if len(calls) == 2 else value)

    monkeypatch.setattr(verify, search, fake_search)
    assert not getattr(verify, check)().passed


def test_oracle_checks_run_each_search_at_its_defaults(monkeypatch):
    # verify checks what a library user gets: each search is called with
    # the state or dimension alone, so its module decides the budget
    calls = []

    def roof(omega):
        calls.append("roof")
        return types.SimpleNamespace(value=0.0)

    def face(N):
        calls.append("face")
        return 0.0, None

    monkeypatch.setattr(verify, "roof_upper_bound", roof)
    monkeypatch.setattr(fm, "brute_force_min_face", face)
    for check in (verify.check_oracle_curve, verify.check_oracle_rank2, verify.check_face_table):
        check()
    assert calls == ["roof"] * (len(verify._CURVE_SAMPLES) + 10) + ["face"] * 31


@pytest.mark.parametrize("tol", [0, 1e-9, math.inf])
def test_nan_fails_every_measurement(tol):
    assert not verify.Measure("x", math.nan, tol).passed
    assert not verify.CheckResult("c", (verify.Measure("y", 0.0, 1.0), verify.Measure("x", math.nan, tol))).passed


def test_exact_measurement_accepts_only_zero():
    assert verify.Measure("count", 0, 0).passed
    assert verify.Measure("worst", 0.0, 0).passed
    assert not verify.Measure("worst", 5e-324, 0).passed
    assert not verify.Measure("count", 1, 0).passed


def test_measurement_is_strict():
    assert verify.Measure("x", np.nextafter(1e-9, 0.0), 1e-9).passed
    assert not verify.Measure("x", 1e-9, 1e-9).passed


def test_check_without_measurements_fails():
    assert not verify.CheckResult("c", ()).passed


def test_detail_prints_each_measurement_once():
    measures = (verify.Measure("alpha", 2.5e-13, 1e-12), verify.Measure("beta count", 3, 0))
    res = verify.CheckResult("c", measures)
    assert not res.passed
    assert res.detail == "alpha 2.50e-13 (tol 1e-12, margin 7.50e-13); beta count 3 (tol 0, margin -3)"
    for m in measures:
        assert res.detail.count(m.label) == 1


def test_junction_check_reads_the_tangency(monkeypatch):
    # a chord end 1e-9 off z* keeps every junction value within its
    # tolerance; only the slope mismatch, about 1e-9 |s''|, shows it
    zstar = sc.lower_tangent_z()
    sc.entanglement_entropy(0.0)  # fills the curve's cache from the true z*
    monkeypatch.setattr(sc, "lower_tangent_z", lambda: zstar + 1e-9)
    assert not verify.check_junctions().passed


def test_two_value_check_reads_the_formula(monkeypatch):
    # an error of 1e-12 at one n keeps the values concave and symmetric
    fn = fm.two_value_entropy
    monkeypatch.setattr(fm, "two_value_entropy", lambda N, n: fn(N, n) + (1e-12 if (N, n) == (20, 10) else 0.0))
    assert not verify.check_two_value_concavity().passed
