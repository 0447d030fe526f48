"""Property tests of the entropy validators: for any input, NaN, infinities
and out-of-range values included, each returns a finite, valid result or
raises ValueError, never another exception."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs

from diagmap.entropy import HERMITIAN_TOL, NEG_CLAMP, eta
from diagmap.states import check_hermitian

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# Ordinary floats, the edges of eta's domain and the non-finite values.
_FLOATS = hs.one_of(
    hs.floats(allow_nan=True, allow_infinity=True),
    hs.floats(-2.0, 2.0),
    hs.sampled_from([0.0, -0.0, 1.0, -NEG_CLAMP, 1.0 + NEG_CLAMP, -2e-12, 1.0 + 2e-12, 5e-324, math.nan, math.inf]),
)


@PROPERTY
@given(_FLOATS)
def test_eta_returns_entropy_or_raises(x):
    try:
        value = eta(x)
    except ValueError:
        assert not -NEG_CLAMP <= x <= 1.0 + NEG_CLAMP
        return
    assert math.isfinite(value) and 0.0 <= value <= math.exp(-1.0)


_COMPLEX = hs.one_of(
    hs.complex_numbers(allow_nan=True, allow_infinity=True),
    hs.complex_numbers(max_magnitude=2.0),
    hs.sampled_from([0j, 1 + 0j, 1e-13j, complex(math.nan, 0.0), complex(0.0, math.inf)]),
)


@hs.composite
def _matrices(draw):
    n = draw(hs.integers(0, 4))
    cols = draw(hs.sampled_from([n, n, n + 1]))
    entries = draw(hs.lists(_COMPLEX, min_size=n * cols, max_size=n * cols))
    m = np.array(entries, dtype=complex).reshape(n, cols)
    if n == cols and draw(hs.booleans()):
        with np.errstate(invalid="ignore", over="ignore"):
            m = 0.5 * (m + m.conj().T)  # hermitian up to non-finite entries
    return m


@PROPERTY
@given(_matrices())
def test_check_hermitian_returns_hermitian_or_raises(H):
    try:
        out = check_hermitian(H)
    except ValueError:
        return
    assert out.ndim == 2 and out.shape[0] == out.shape[1]
    assert np.isfinite(out).all()
    assert np.max(np.abs(out - out.conj().T), initial=0.0) <= HERMITIAN_TOL
