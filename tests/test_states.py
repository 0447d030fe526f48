import math
import warnings

import numpy as np
import pytest
from numpy.random import Generator, Philox

from diagmap.states import (
    Decomposition,
    StateFormatError,
    check_density_matrix,
    diagonal_channel,
    diagonal_output_entropy,
    format_density_matrix,
    parse_density_matrix,
    pure_to_density,
    read_density_matrix,
    real_projection,
    symmetric_state,
    twirl_s3,
    uniform_fidelity,
    von_neumann_entropy,
    write_density_matrix,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def _random_density(g, n=3):
    a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    omega = a @ a.conj().T
    return omega / np.trace(omega).real


def test_pure_to_density_basis():
    rho = pure_to_density([1.0, 0.0, 0.0])
    assert np.allclose(rho, np.diag([1.0, 0.0, 0.0]))


def test_pure_to_density_pair_state():
    psi = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    rho = pure_to_density(psi)
    expected = np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(rho, expected, atol=1e-15)


def test_pure_to_density_uniform_superposition():
    psi = np.full(3, 1.0 / math.sqrt(3.0))
    assert np.allclose(pure_to_density(psi), symmetric_state(1.0), atol=1e-12)


def test_pure_to_density_is_projector():
    g = Generator(Philox(key=np.array([8, 0], dtype=np.uint64)))
    for _ in range(20):
        psi = g.standard_normal(4) + 1j * g.standard_normal(4)
        psi /= np.linalg.norm(psi)
        rho = pure_to_density(psi)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho @ rho - rho)) < 1e-10


def test_pure_to_density_rejects_unnormalized():
    with pytest.raises(ValueError):
        pure_to_density([1.0, 1.0, 0.0])
    for bad in ([math.nan, 1.0], [math.inf, 0.0]):
        with pytest.raises(ValueError):
            pure_to_density(bad)


def test_diagonal_channel_on_symmetric_family():
    for z in (-0.5, -0.2, 0.0, 0.7, 1.0):
        out = diagonal_channel(symmetric_state(z))
        assert np.allclose(out, np.eye(3) / 3.0, atol=1e-15)


def test_diagonal_channel_fixed_points_and_idempotence():
    diag = np.diag([0.2, 0.3, 0.5]).astype(complex)
    assert np.array_equal(diagonal_channel(diag), diag)
    g = Generator(Philox(key=np.array([9, 0], dtype=np.uint64)))
    for _ in range(20):
        omega = _random_density(g)
        once = diagonal_channel(omega)
        assert np.array_equal(diagonal_channel(once), once)
        assert np.trace(once) == np.trace(omega)


def test_diagonal_channel_of_pure_state():
    psi = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    out = diagonal_channel(pure_to_density(psi))
    assert np.allclose(out, np.diag([0.5, 0.5, 0.0]), atol=1e-15)


def test_diagonal_output_entropy_values():
    assert diagonal_output_entropy(symmetric_state(0.3)) == pytest.approx(LN3, abs=1e-12)
    assert diagonal_output_entropy(pure_to_density([1.0, 0.0, 0.0])) == 0.0
    psi = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    assert diagonal_output_entropy(pure_to_density(psi)) == pytest.approx(LN2, abs=1e-15)


def test_diagonal_output_entropy_projection_invariance():
    g = Generator(Philox(key=np.array([10, 0], dtype=np.uint64)))
    for _ in range(30):
        omega = _random_density(g)
        s = diagonal_output_entropy(omega)
        assert diagonal_output_entropy(omega.T) == s
        assert diagonal_output_entropy(real_projection(omega)) == s


def test_von_neumann_entropy_values():
    g = Generator(Philox(key=np.array([11, 0], dtype=np.uint64)))
    psi = g.standard_normal(3) + 1j * g.standard_normal(3)
    psi /= np.linalg.norm(psi)
    assert von_neumann_entropy(pure_to_density(psi)) == pytest.approx(0.0, abs=1e-9)
    assert von_neumann_entropy(np.eye(4) / 4.0) == pytest.approx(math.log(4.0), abs=1e-12)
    assert von_neumann_entropy(symmetric_state(-0.5)) == pytest.approx(LN2, abs=1e-12)


def test_measurement_increases_entropy():
    g = Generator(Philox(key=np.array([12, 0], dtype=np.uint64)))
    for _ in range(30):
        omega = _random_density(g)
        assert von_neumann_entropy(diagonal_channel(omega)) >= von_neumann_entropy(omega) - 1e-9


def test_real_projection_fixes_real_states():
    omega = symmetric_state(0.4)
    assert np.allclose(real_projection(omega), omega, atol=0.0)


def test_real_projection_cancels_antisymmetric_imaginary_part():
    omega = np.eye(3, dtype=complex) / 3.0
    omega[0, 1] += 0.1j
    omega[1, 0] -= 0.1j
    assert np.allclose(real_projection(omega), np.eye(3) / 3.0, atol=1e-15)


def test_real_projection_idempotent():
    g = Generator(Philox(key=np.array([13, 0], dtype=np.uint64)))
    for _ in range(100):
        omega = _random_density(g)
        once = real_projection(omega)
        assert np.array_equal(real_projection(once), once)


def test_twirl_values():
    assert twirl_s3(symmetric_state(1.0)) == pytest.approx(1.0, abs=1e-12)
    assert twirl_s3(np.diag([1.0, 0.0, 0.0]).astype(complex)) == pytest.approx(0.0, abs=1e-15)
    psi = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    # ab + ac + bc = -1/2 for this vector
    assert twirl_s3(pure_to_density(psi)) == pytest.approx(-0.5, abs=1e-12)


def test_twirl_inverts_symmetric_state():
    for z in np.linspace(-0.5, 1.0, 31):
        assert abs(twirl_s3(symmetric_state(float(z))) - z) < 1e-12


def test_twirl_of_real_pure_state_matches_cross_terms():
    g = Generator(Philox(key=np.array([14, 0], dtype=np.uint64)))
    for _ in range(50):
        v = g.standard_normal(3)
        v /= np.linalg.norm(v)
        a, b, c = v
        assert twirl_s3(pure_to_density(v)) == pytest.approx(a * b + a * c + b * c, abs=1e-12)


def test_symmetric_state_endpoints():
    assert np.allclose(symmetric_state(0.0), np.eye(3) / 3.0)
    evals = np.linalg.eigvalsh(symmetric_state(1.0))
    assert np.allclose(evals, [0.0, 0.0, 1.0], atol=1e-12)
    omega = symmetric_state(-0.5)
    assert np.max(np.abs(omega @ np.ones(3))) < 1e-15


def test_symmetric_state_domain():
    with pytest.raises(ValueError):
        symmetric_state(-0.6)
    with pytest.raises(ValueError):
        symmetric_state(1.01)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            symmetric_state(bad)


def test_uniform_fidelity():
    assert uniform_fidelity(1.0) == pytest.approx(1.0, abs=1e-15)
    assert uniform_fidelity(-0.5) == pytest.approx(0.0, abs=1e-15)
    assert uniform_fidelity(0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # agrees with the overlap definition
    psi = np.full(3, 1.0 / math.sqrt(3.0))
    for z in (-0.3, 0.2, 0.9):
        direct = float((psi @ symmetric_state(z) @ psi).real)
        assert uniform_fidelity(z) == pytest.approx(direct, abs=1e-12)


def test_decomposition_mixture_and_average():
    psi1 = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    psi2 = np.array([0.0, -1.0, 1.0]) / math.sqrt(2.0)
    psi3 = np.array([-1.0, 1.0, 0.0]) / math.sqrt(2.0)
    dec = Decomposition(weights=np.full(3, 1 / 3), states=[psi1, psi2, psi3])
    assert np.allclose(dec.mixture(), symmetric_state(-0.5), atol=1e-12)
    assert dec.average_output_entropy() == pytest.approx(LN2, abs=1e-12)


def test_density_matrix_file_roundtrip(tmp_path):
    g = Generator(Philox(key=np.array([15, 0], dtype=np.uint64)))
    omega = _random_density(g)
    path = tmp_path / "state.txt"
    write_density_matrix(path, omega)
    again = read_density_matrix(path)
    assert np.allclose(again, omega, atol=1e-15)


def test_parse_density_matrix_accepts_plain_text():
    text = "2\n0.5+0j 0.1-0.2j\n0.1+0.2j 0.5+0j\n"
    omega = parse_density_matrix(text)
    assert omega[0, 1] == pytest.approx(0.1 - 0.2j)


def test_parse_density_matrix_errors():
    with pytest.raises(StateFormatError):
        parse_density_matrix("")
    with pytest.raises(StateFormatError):
        parse_density_matrix("x\n1 0\n0 0\n")
    with pytest.raises(StateFormatError):
        parse_density_matrix("2\n1+0j\n0+0j 0+0j\n")
    with pytest.raises(StateFormatError):
        parse_density_matrix("2\n1+0j nope\n0+0j 0+0j\n")
    # hermitian but wrong trace
    with pytest.raises(StateFormatError):
        parse_density_matrix("2\n1+0j 0+0j\n0+0j 1+0j\n")
    # non-hermitian
    with pytest.raises(StateFormatError):
        parse_density_matrix("2\n0.5+0j 0.5+0j\n-0.5+0j 0.5+0j\n")
    # hermitian, trace 1, not positive
    with pytest.raises(StateFormatError):
        parse_density_matrix("2\n1.5+0j 0+0j\n0+0j -0.5+0j\n")


def test_check_density_matrix_tolerances():
    good = np.eye(3) / 3.0 + 0.0j
    check_density_matrix(good)
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(3))  # trace 3
    bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        check_density_matrix(bad)
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 0.0])):
        with pytest.raises(ValueError), warnings.catch_warnings():
            warnings.simplefilter("error")
            check_density_matrix(bad)


def test_format_density_matrix_roundtrips_small_imaginaries():
    omega = symmetric_state(0.25)
    text = format_density_matrix(omega)
    assert parse_density_matrix(text) is not None
    assert text.splitlines()[0] == "3"
