import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from numpy.random import Generator, Philox

from diagmap.entropy import _entropy_sum
from diagmap.states import (
    Decomposition,
    StateFormatError,
    check_density_matrix,
    diagonal_channel,
    diagonal_output_entropy,
    format_density_matrix,
    parse_density_matrix,
    read_density_matrix,
    symmetric_state,
    twirl_s3,
    von_neumann_entropy,
    write_density_matrix,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def _random_density(g, n=3):
    a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    omega = a @ a.conj().T
    return omega / np.trace(omega).real


def _projector(psi):
    return np.outer(psi, np.conj(psi))


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
    out = diagonal_channel(_projector(psi))
    assert np.allclose(out, np.diag([0.5, 0.5, 0.0]), atol=1e-15)


def test_diagonal_output_entropy_values():
    assert diagonal_output_entropy(symmetric_state(0.3)) == pytest.approx(LN3, abs=1e-12)
    assert diagonal_output_entropy(_projector([1.0, 0.0, 0.0])) == 0.0
    psi = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    assert diagonal_output_entropy(_projector(psi)) == pytest.approx(LN2, abs=1e-15)


def test_diagonal_output_entropy_projection_invariance():
    g = Generator(Philox(key=np.array([10, 0], dtype=np.uint64)))
    for _ in range(30):
        omega = _random_density(g)
        s = diagonal_output_entropy(omega)
        assert diagonal_output_entropy(omega.T) == s
        assert diagonal_output_entropy(0.5 * (omega + omega.T)) == s


def test_diagonal_output_entropy_bounds_and_permutation_invariance():
    # the entropy sum runs smallest first, so the order of the diagonal does
    # not change it by a single bit
    g = Generator(Philox(key=np.array([4, 0], dtype=np.uint64)))
    for _ in range(100):
        p = g.uniform(0.0, 1.0, size=5)
        p /= p.sum()
        s = diagonal_output_entropy(np.diag(p))
        assert 0.0 <= s <= math.log(p.size) + 1e-12
        assert diagonal_output_entropy(np.diag(g.permutation(p))) == s


def test_von_neumann_entropy_values():
    g = Generator(Philox(key=np.array([11, 0], dtype=np.uint64)))
    psi = g.standard_normal(3) + 1j * g.standard_normal(3)
    psi /= np.linalg.norm(psi)
    assert von_neumann_entropy(_projector(psi)) == pytest.approx(0.0, abs=1e-9)
    assert von_neumann_entropy(np.eye(4) / 4.0) == pytest.approx(math.log(4.0), abs=1e-12)
    assert von_neumann_entropy(symmetric_state(-0.5)) == pytest.approx(LN2, abs=1e-12)


def test_von_neumann_entropy_decomposes_its_state_once(monkeypatch):
    # the validity check's spectrum is the one summed, bit for bit
    eigvalsh = np.linalg.eigvalsh
    g = Generator(Philox(key=np.array([42, 0], dtype=np.uint64)))
    omegas = [_random_density(g), _random_density(g, 4), symmetric_state(0.3), np.eye(4) / 4.0]
    want = [_entropy_sum(eigvalsh(check_density_matrix(omega))) for omega in omegas]
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(1)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for omega, value in zip(omegas, want):
        calls.clear()
        assert von_neumann_entropy(omega) == value
        assert len(calls) == 1


def test_measurement_increases_entropy():
    g = Generator(Philox(key=np.array([12, 0], dtype=np.uint64)))
    for _ in range(30):
        omega = _random_density(g)
        assert von_neumann_entropy(diagonal_channel(omega)) >= von_neumann_entropy(omega) - 1e-9


def test_twirl_values():
    assert twirl_s3(symmetric_state(1.0)) == pytest.approx(1.0, abs=1e-12)
    assert twirl_s3(np.diag([1.0, 0.0, 0.0]).astype(complex)) == pytest.approx(0.0, abs=1e-15)
    psi = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    # ab + ac + bc = -1/2 for this vector
    assert twirl_s3(_projector(psi)) == pytest.approx(-0.5, abs=1e-12)


def test_twirl_inverts_symmetric_state():
    for z in np.linspace(-0.5, 1.0, 31):
        assert abs(twirl_s3(symmetric_state(float(z))) - z) < 1e-12


def test_twirl_of_real_pure_state_matches_cross_terms():
    g = Generator(Philox(key=np.array([14, 0], dtype=np.uint64)))
    for _ in range(50):
        v = g.standard_normal(3)
        v /= np.linalg.norm(v)
        a, b, c = v
        assert twirl_s3(_projector(v)) == pytest.approx(a * b + a * c + b * c, abs=1e-12)


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


def test_decomposition_mixture_and_average():
    psi1 = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    psi2 = np.array([0.0, -1.0, 1.0]) / math.sqrt(2.0)
    psi3 = np.array([-1.0, 1.0, 0.0]) / math.sqrt(2.0)
    dec = Decomposition(weights=np.full(3, 1 / 3), states=[psi1, psi2, psi3])
    assert np.allclose(dec.mixture(), symmetric_state(-0.5), atol=1e-12)
    assert dec.average_output_entropy() == pytest.approx(LN2, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_decomposition_rejects_non_finite_or_negative_weights(bad):
    # a NaN weight once gave a NaN average, and -1 a mixture with -1 on its diagonal
    states = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    with pytest.raises(ValueError, match="weights"):
        Decomposition(weights=np.array([bad, 0.5]), states=states)
    # a subnormal weight stays allowed, as the roof search can leave one
    assert len(Decomposition(weights=np.array([5e-324, 1.0]), states=states)) == 2


def _reference_weights_ok(weights) -> bool:
    # the earlier check: two numpy reductions, skipped for an empty mixture
    w = np.asarray(weights, dtype=float)
    return not w.size or bool(w.min() >= 0.0 and w.max() < np.inf)


def _assert_weight_check_matches_reference(weights):
    states = [np.array([1.0, 0.0])] * np.asarray(weights).size
    if _reference_weights_ok(weights):
        dec = Decomposition(weights=weights, states=states)
        want = np.asarray(weights, dtype=float)
        assert dec.weights.dtype == np.float64 and dec.weights.shape == want.shape
        assert dec.weights.tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError, match="weights"):
            Decomposition(weights=weights, states=states)


_WEIGHTS = hs.one_of(
    hs.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    hs.floats(0.0, 1.0),
    hs.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1.7976931348623157e308, math.nan, math.inf, -math.inf]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(hs.lists(_WEIGHTS, max_size=6))
def test_decomposition_weight_check_matches_two_reduction_reference(values):
    _assert_weight_check_matches_reference(np.array(values, dtype=float))


@pytest.mark.parametrize(
    "weights",
    [
        np.array([]),
        [],
        np.array(0.5),
        np.array(-0.0),
        np.array(math.nan),
        np.array(-1.0),
        [0.25, 0.75],
        [0.25, -0.75],
        [0.25, math.inf],
        np.array([1, 2]),
        np.array([1, -2]),
        np.array([[0.25, 0.75], [0.0, -0.0]]),
        np.array([[0.25, math.nan]]),
        np.array([0.5, 5e-324], dtype=np.float32),
    ],
    ids=repr,
)
def test_decomposition_weight_check_matches_reference_on_other_inputs(weights):
    _assert_weight_check_matches_reference(weights)


@pytest.mark.parametrize("member", [[0.9, 0.9], [2.0, 0.0], [0.0, 0.0], [math.nan, 1.0], [0.6j, 0.8 + 1e-11]])
def test_decomposition_rejects_members_off_unit_norm_where_they_are_read(member):
    # (0.9, 0.9) once averaged to 0.341 nats and (2, 0) to 0: the entropy
    # of a member's squared moduli assumes they sum to 1
    dec = Decomposition(weights=[0.5, 0.5], states=[[1.0, 0.0], member])
    with pytest.raises(ValueError, match="member 1 has squared norm"):
        dec.average_output_entropy()
    with pytest.raises(ValueError, match="member 1 has squared norm"):
        dec.mixture()


def test_decomposition_accepts_members_within_norm_tol():
    dec = Decomposition(weights=[1.0], states=[[math.sqrt(0.5 + 4e-13), math.sqrt(0.5)]])
    assert dec.average_output_entropy() == pytest.approx(LN2, abs=1e-12)
    assert dec.mixture().dtype == np.complex128


@pytest.mark.parametrize(
    "weights, states",
    [
        ([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0, 0.0]]),  # ragged: once a broadcast error in mixture()
        ([0.5, 0.5], [[1.0, 0.0]]),
        ([1.0], [[1.0, 0.0], [0.0, 1.0]]),
        ([1.0], [1.0, 0.0]),
        ([1.0], [[[1.0, 0.0]]]),
        ([], [[1.0, 0.0]]),
    ],
    ids=repr,
)
def test_decomposition_refuses_members_that_are_not_one_row_per_weight(weights, states):
    with pytest.raises(ValueError, match="members"):
        Decomposition(weights=weights, states=states)


def test_empty_decomposition_is_accepted():
    for states in ([], np.zeros((0, 3))):
        dec = Decomposition(weights=[], states=states)
        assert len(dec) == 0 and dec.states.ndim == 2
        assert dec.average_output_entropy() == 0.0


def _sample_decompositions():
    # complex members, real members, 2-d weights and the empty mixture
    members = np.array([[1.0, 1.0j, 0.0], [0.6, 0.0, 0.8j]]) / np.array([[math.sqrt(2.0)], [1.0]])
    return [
        Decomposition(weights=[0.25, 0.75], states=members),
        Decomposition(weights=np.full(3, 1 / 3), states=np.eye(3)),
        Decomposition(weights=np.array([[0.5, 0.5]]), states=np.eye(2)),
        Decomposition(weights=[], states=[]),
    ]


def test_decomposition_attributes_cannot_be_assigned_or_deleted():
    for dec in _sample_decompositions():
        weights, states = dec.weights, dec.states
        for name in ("weights", "states"):
            with pytest.raises(AttributeError):
                setattr(dec, name, np.zeros(1))
            with pytest.raises(AttributeError):
                delattr(dec, name)
        assert dec.weights is weights and dec.states is states


def test_decomposition_pickle_and_copies_keep_the_arrays():
    for dec in _sample_decompositions():
        for twin in (pickle.loads(pickle.dumps(dec)), copy.deepcopy(dec), copy.copy(dec)):
            assert type(twin) is Decomposition and len(twin) == len(dec)
            for got, want in ((twin.weights, dec.weights), (twin.states, dec.states)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_decomposition_repr_names_both_arrays():
    for dec in _sample_decompositions():
        assert repr(dec) == f"Decomposition(weights={dec.weights!r}, states={dec.states!r})"


def test_decomposition_equality_and_hash_are_by_identity():
    dec = Decomposition(weights=[1.0], states=[[1.0, 0.0]])
    twin = copy.deepcopy(dec)
    assert dec == dec and dec != twin
    assert hash(dec) == hash(dec) and len({dec, twin}) == 2


@pytest.mark.parametrize("complex_members", [False, True])
def test_decomposition_readers_match_the_member_list_reference(complex_members):
    # the earlier readers: a loop of outer products and of per-member entropies
    g = Generator(Philox(key=np.array([28, int(complex_members)], dtype=np.uint64)))
    for n, dim in [(1, 2), (3, 3), (6, 3), (9, 3), (16, 4), (5, 6)]:
        members = g.standard_normal((n, dim))
        if complex_members:
            members = members + 1j * g.standard_normal((n, dim))
        members /= np.linalg.norm(members, axis=1, keepdims=True)
        weights = g.dirichlet(np.ones(n))
        dec = Decomposition(weights=weights, states=members)
        assert dec.states.dtype == members.dtype and dec.states.tobytes() == members.tobytes()
        want = np.zeros((dim, dim), dtype=complex)
        average = 0.0
        for p, s in zip(weights, list(members)):
            want += p * np.outer(s, np.conj(s))
            average += p * _entropy_sum(np.abs(np.asarray(s)) ** 2)
        got = dec.mixture()
        assert got.dtype == np.complex128
        assert np.max(np.abs(got - want)) <= 1e-15
        assert dec.average_output_entropy() == average
        # 2-d weights hold the same mixture
        dec = Decomposition(weights=weights[None, :], states=members)
        assert np.max(np.abs(dec.mixture() - want)) <= 1e-15
        assert dec.average_output_entropy() == average


def test_density_matrix_file_roundtrip(tmp_path):
    g = Generator(Philox(key=np.array([15, 0], dtype=np.uint64)))
    omega = _random_density(g)
    path = tmp_path / "state.txt"
    write_density_matrix(path, omega)
    again = read_density_matrix(path)
    assert np.allclose(again, omega, atol=1e-15)


@pytest.mark.parametrize(
    "omega",
    [
        np.array([[math.nan, 0.0], [0.0, 1.0]]),
        3.0 * np.eye(2),
        np.full((2, 3), 1.0 / 3.0),
    ],
    ids=["nan", "trace-6", "2x3"],
)
def test_write_density_matrix_refuses_what_the_reader_rejects(tmp_path, omega):
    # before the file is opened, so that no partial file is left behind
    path = tmp_path / "state.txt"
    with pytest.raises(ValueError):
        write_density_matrix(path, omega)
    assert not path.exists()


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
