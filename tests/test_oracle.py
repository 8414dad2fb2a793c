"""An exact reference for W2² between cells of any sample counts, built from
the quantile definition alone.

A cell's quantile function Q(t) is its ceil(t·n)-th order statistic, so
between the breakpoints k/n_a and l/n_b of two cells both are constant, and
W2² = ∫₀¹ (Q_a − Q_b)² is a sum over those pieces, each read at its
midpoint. With integer samples every term is a fraction, so the reference
is exact: it shares no float, no integer key and no merged-grid code with
the library's fast paths. A second reference solves W2²'s own definition,
the least cost of a coupling, as a linear program, so it shares not even
the quantile formula.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

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


def lp_w2sq(a, b):
    """The least cost of moving a's atoms, of mass 1/n_a each, onto b's, of
    mass 1/n_b each, at squared distance, over every coupling (HiGHS)."""
    n_a, n_b = len(a), len(b)
    a_eq = np.vstack([np.kron(np.eye(n_a), np.ones(n_b)), np.kron(np.ones(n_a), np.eye(n_b))])
    b_eq = np.concatenate([np.full(n_a, 1.0 / n_a), np.full(n_b, 1.0 / n_b)])
    res = linprog(np.subtract.outer(a, b).ravel() ** 2, A_eq=a_eq, b_eq=b_eq, method="highs")
    assert res.status == 0, res.message
    return res.fun


def test_w2sq_and_row_pairs_match_the_optimal_coupling():
    """300 ragged pairs of integer cells, n from 1 to 12. HiGHS returns a
    vertex of the coupling polytope; its entries are multiples of
    1/(n_a·n_b), so with integer costs two vertices' costs differ by at
    least 1/144. A tolerance of 1e-9·max(1, W2²) lies far below that and far
    above the rounding seen (1.2e-15 relative)."""
    rng = np.random.default_rng(23)
    for _ in range(30):
        cells = [np.sort(rng.integers(-9, 10, int(rng.integers(1, 13))).astype(float))
                 for _ in range(11)]
        pairs = _w2sq_pairs(_column_block(cells), np.arange(1, 11), 0)
        for u, value in zip(range(1, 11), pairs.tolist()):
            best = lp_w2sq(cells[u], cells[0])
            tol = 1e-9 * max(1.0, best)
            assert abs(value - best) <= tol
            assert abs(w2sq(from_samples(cells[u]), from_samples(cells[0])) - best) <= tol
