"""An exact reference for W2² between cells of any sample counts, built from
the quantile definition alone.

A cell's quantile function Q(t) is its ceil(t·n)-th order statistic, so
between the breakpoints k/n_a and l/n_b of two cells both are constant, and
W2² = ∫₀¹ (Q_a − Q_b)² is a sum over those pieces, each read at its
midpoint. With integer samples every term is a fraction, so the reference
is exact: it shares no float, no integer key and no merged-grid code with
the library's fast paths.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from distnn import empirical, from_samples, w2sq
from distnn.empirical import _column_block, _w2sq_pairs

EPS = Fraction(np.finfo(float).eps)


def exact_pieces(a, b):
    """(width, squared gap) of every piece between the two cells' breakpoints."""
    a, b = sorted(a), sorted(b)
    cuts = sorted({Fraction(k, len(a)) for k in range(len(a) + 1)}
                  | {Fraction(k, len(b)) for k in range(len(b) + 1)})
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        gap = a[math.ceil(mid * len(a)) - 1] - b[math.ceil(mid * len(b)) - 1]
        pieces.append((hi - lo, Fraction(gap * gap)))
    return pieces


def assert_near_exact(got, a, b):
    """``got`` within 4·P·eps·max f of the exact W2², for P pieces and largest
    squared gap max f. Each float breakpoint is its fraction rounded, so a
    width is off by at most 1.5·eps; the product and the sum of P terms add
    at most P·eps/2 of the total, itself at most max f: about 2·P·eps·max f
    in all, half the bound."""
    pieces = exact_pieces(a, b)
    exact = sum(w * f for w, f in pieces)
    assert abs(Fraction(got) - exact) <= 4 * len(pieces) * EPS * max(f for _, f in pieces)


cell = st.lists(st.integers(-9, 9), min_size=1, max_size=9)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cells=st.lists(st.one_of(st.none(), cell), min_size=2, max_size=9).filter(
           lambda cs: sum(c is not None for c in cs) >= 2),
       pick=st.integers(0, 8), per_chunk=st.integers(1, 3))
def test_w2sq_and_row_pairs_match_the_exact_value(cells, pick, per_chunk):
    observed = [r for r, c in enumerate(cells) if c is not None]
    i = observed[pick % len(observed)]
    rows = np.array([u for u in observed if u != i])
    for u in rows.tolist():
        assert_near_exact(w2sq(from_samples(cells[u]), from_samples(cells[i])), cells[u], cells[i])
    block = _column_block([None if c is None else np.sort(np.array(c, dtype=float)) for c in cells])
    # a budget of per_chunk pairs of the widest grid, so the column splits
    widest = len(cells[i]) + max(len(cells[u]) for u in rows.tolist())
    with mock.patch.object(empirical, "_GATHER_ELEMENTS", per_chunk * widest):
        got = _w2sq_pairs(block, rows, i)
    assert got.shape == rows.shape
    for u, value in zip(rows.tolist(), got.tolist()):
        assert_near_exact(value, cells[u], cells[i])


def test_exact_pieces_of_a_coprime_pair():
    # breakpoints 1/2 and 1/3, 2/3: pieces 1/3, 1/6, 1/6, 1/3 with gaps
    # 0 - 1, 0 - 2, 4 - 2, 4 - 3
    pieces = exact_pieces([0, 4], [1, 2, 3])
    assert pieces == [(Fraction(1, 3), 1), (Fraction(1, 6), 4), (Fraction(1, 6), 4), (Fraction(1, 3), 1)]
    assert sum(w * f for w, f in pieces) == Fraction(2)
