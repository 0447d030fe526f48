"""Property tests of the state-file parser: any text either parses to a valid
density matrix or raises StateFormatError, never another exception."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs

from diagmap.states import StateFormatError, check_density_matrix, format_density_matrix, parse_density_matrix

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def _parses_or_format_error(text: str):
    try:
        omega = parse_density_matrix(text)
    except StateFormatError:
        return None
    check_density_matrix(omega)
    return omega


# Tokens a hand-written file might hold: plain and complex numbers, the
# non-finite spellings Python's complex() accepts, and rubbish.
_TOKENS = hs.one_of(
    hs.sampled_from(["0", "1", "0.5+0j", "1/3", "nan", "inf", "-infj", "1e999", "1e-400+0j", "0x1", "j", "+", "--1"]),
    hs.complex_numbers(allow_nan=True, allow_infinity=True).map(lambda c: f"{c.real!r}{c.imag:+}j"),
    hs.text(max_size=6),
)


@hs.composite
def _matrix_texts(draw):
    n = draw(hs.integers(0, 4))
    header = draw(hs.sampled_from([str(n), f" {n} ", f"{n}.0", "-1", "3x"]))
    rows = [" ".join(draw(hs.lists(_TOKENS, min_size=n, max_size=n + 1))) for _ in range(draw(hs.integers(0, n + 1)))]
    return "\n".join([header, *rows]) + draw(hs.sampled_from(["", "\n", "\n\n"]))


@PROPERTY
@given(hs.text())
def test_parser_on_arbitrary_text(text):
    _parses_or_format_error(text)


@PROPERTY
@given(_matrix_texts())
def test_parser_on_matrix_shaped_text(text):
    _parses_or_format_error(text)


@PROPERTY
@given(
    n=hs.integers(1, 4),
    entries=hs.lists(hs.floats(-1e3, 1e3, allow_nan=False), min_size=32, max_size=32),
    scale=hs.sampled_from([1.0, 1.0 + 1e-11, 1.0 + 1e-9, -1.0]),
)
def test_parser_round_trips_formatted_states(n, entries, scale):
    # a Gram matrix a a^H is positive; after normalising its trace it is a
    # state, which the format writes to 17 digits and so round-trips exactly
    a = np.array(entries[: n * n]) + 1j * np.array(entries[16 : 16 + n * n])
    a = a.reshape(n, n)
    gram = a @ a.conj().T
    trace = np.trace(gram).real
    omega = gram / trace if trace > 1e-6 else np.eye(n) / n
    # a trace off by more than the tolerance, or a negative matrix, must be
    # rejected as a format error
    parsed = _parses_or_format_error(format_density_matrix(scale * omega))
    if scale == 1.0:
        assert parsed is not None and np.array_equal(parsed, omega)
    elif scale != 1.0 + 1e-11:
        assert parsed is None
