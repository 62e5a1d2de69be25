import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from transient_lab import SymbolicTransient

# the same examples on every run, however slow the host, so tier 1 is deterministic
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def random_transient(rng, n_terms, rate_lo=0.3, gap_lo=0.5, gap_hi=1.5,
                     coeff_lo=0.1, coeff_hi=5.0, rate_start_hi=None):
    """Well-separated random signal: gapped rates, coefficients bounded away from 0."""
    start_hi = rate_start_hi if rate_start_hi is not None else rate_lo + 0.5
    rates = [rng.uniform(rate_lo, start_hi)]
    for _ in range(n_terms - 1):
        rates.append(rates[-1] + rng.uniform(gap_lo, gap_hi))
    coeffs = [float(rng.uniform(coeff_lo, coeff_hi) * rng.choice([-1.0, 1.0]))
              for _ in range(n_terms)]
    return SymbolicTransient(tuple(zip(rates, coeffs)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def refit_sizes(monkeypatch):
    """The number of terms each joint refit of a decomposition starts from,
    in call order."""
    from transient_lab import decomposer

    sizes = []
    real = decomposer._joint_refit

    def counted(grid, values, rates, *args):
        sizes.append(len(rates))
        return real(grid, values, rates, *args)

    monkeypatch.setattr(decomposer, "_joint_refit", counted)
    return sizes


# ---------------------------------------------------------------------------
# sample CSV text in and around the format load_samples_csv accepts
# ---------------------------------------------------------------------------

_HEADERS = st.sampled_from(["t,x", "t,x", "t,x", " t , x ", "t,x,note", '"t",x',
                            "time,value", "t", ""])
# lines between samples: blank, whitespace-only, comment-like, one column
_OTHER_LINES = st.sampled_from(["", "", " ", "\t", "\f", "# note", "1.0", ","])
_EXTRA_COLUMNS = st.lists(st.sampled_from(["", "note", "#", " 7 ", '"a,b"', '"',
                                           '"two\nlines"']), max_size=2)
# how a number may be written: plain, padded, quoted, with a digit underscore
# or a trailing '#', or next to characters float() and numpy strip differently
_SPELLINGS = st.sampled_from(["{}", "{}", "{}", "{}", " {} ", "\t{}", "{}\f", "1\f{}",
                              '"{}"', "1_{}", "{}#", "\x1c{}", "{}\x1f", "{}\xa0",
                              "+{}", "", "{}_"])


@st.composite
def sample_csv_texts(draw, numbers=st.floats(-1e6, 1e6), min_rows=0, max_rows=6):
    """Text of a sample CSV, valid or not: a grid that is uniform, sorted or
    as drawn, values drawn or decaying, CRLF, LF or CR line ends with or
    without a final one; in half the files each field is spelled in one of
    the ways above, with other lines and extra columns between and after."""
    n = draw(st.integers(min_rows, max_rows))
    grid = draw(st.sampled_from(["uniform", "sorted", "drawn"]))
    if grid == "uniform":
        start = draw(st.sampled_from([0.0, 0.5]))
        step = draw(st.floats(1e-3, 10.0))
        times = [start + k * step for k in range(n)]
    else:
        times = draw(st.lists(numbers, min_size=n, max_size=n))
        if grid == "sorted":
            times.sort()
    if draw(st.booleans()):
        coeff, rate = draw(numbers), draw(st.floats(0.1, 5.0))
        values = [coeff * math.exp(-rate * t) if math.isfinite(t) and t > -100 else t
                  for t in times]
    else:
        values = draw(st.lists(numbers, min_size=n, max_size=n))
    messy = draw(st.booleans())
    lines = [draw(_HEADERS) if messy else "t,x"]
    for t, x in zip(times, values):
        if messy:
            lines += draw(st.lists(_OTHER_LINES, max_size=1))
            fields = [draw(_SPELLINGS).format(repr(v)) for v in (t, x)]
            lines.append(",".join(fields + draw(_EXTRA_COLUMNS)))
        else:
            lines.append(f"{t!r},{x!r}")
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))
