"""Merged breakpoint grids read straight from a column block.

The row table's batched pairs, the gather of members' values and the
chunked running sums must give the bits of the per-pair and per-member
computations they replace.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnn import DistributionalMatrix, TuneConfig, from_samples, impute, step_barycenter, tune_eta, w2sq
from distnn import empirical
from distnn.empirical import _block_grid, _w2sq_pairs
from distnn.estimator import _RowState, _w2sq_table


def _block(cells):
    """A column block (flat samples, row offsets) holding sorted ``cells``."""
    offsets = np.cumsum([0] + [c.size for c in cells])
    return np.concatenate([np.sort(c) for c in cells]), offsets


def _searchsorted_grid(ds):
    """The merged grid as each member's own edges read it: one
    ``searchsorted`` per member, the order-statistic stack for one count."""
    if len({d.n for d in ds}) == 1:
        return ds[0].step_edges(), None, np.array([d.samples for d in ds])
    steps = [d.step_edges() for d in ds]
    edges = np.unique(np.concatenate(steps))
    widths = np.diff(np.concatenate(([0.0], edges)))
    mids = edges - 0.5 * widths
    values = np.array([d.samples[np.searchsorted(s, mids, side="left")] for d, s in zip(ds, steps)])
    return edges, widths, values


def _samples(rng, n, tied):
    if tied:
        return rng.integers(-3, 4, size=n).astype(float)
    return rng.normal(rng.normal(0.0, 3.0), rng.uniform(0.5, 3.0), n)


@st.composite
def ragged_columns(draw, max_cells=8, max_n=300):
    """Cell sizes for one column: free counts, multiples of one base (shared
    divisors, repeated counts) and coprime ones all appear."""
    base = draw(st.integers(1, 60))
    size = st.one_of(st.integers(1, max_n), st.integers(1, 5).map(lambda k: k * base))
    sizes = draw(st.lists(size, min_size=2, max_size=max_cells))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tied = draw(st.booleans())
    return [_samples(rng, n, tied) for n in sizes]


class TestPairTable:
    """One sort gives every pair's grid; each pair equals w2sq exactly."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(cells=ragged_columns())
    def test_batched_pairs_equal_w2sq(self, cells):
        flat, offsets = _block(cells)
        ds = [from_samples(c) for c in cells]
        for i in range(len(cells)):
            rows = np.array([u for u in range(len(cells)) if u != i])
            got = _w2sq_pairs((flat, offsets), rows, i)
            assert got.tolist() == [w2sq(ds[u], ds[i]) for u in rows.tolist()]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(cells=ragged_columns(max_cells=6, max_n=40), hidden=st.integers(0, 5))
    def test_row_table_of_a_ragged_column(self, cells, hidden):
        # a second, equal-size column; one cell of the ragged one hidden
        rng = np.random.default_rng(len(cells))
        m = DistributionalMatrix([[c, rng.normal(size=3)] for c in cells])
        m = m.mask_cell(hidden % len(cells), 0)
        for i in range(m.n_rows):
            table = _w2sq_table(m, i)
            for u in range(m.n_rows):
                for c in range(m.n_cols):
                    if u == i or not (m.mask[i, c] and m.mask[u, c]):
                        assert math.isnan(table[u, c])
                    else:
                        assert table[u, c] == w2sq(m.entry(u, c), m.entry(i, c))

    def test_coprime_pair_near_a_hundred_thousand(self):
        rng = np.random.default_rng(8)
        cells = [rng.normal(size=99_991), rng.normal(0.5, 2.0, size=100_000)]
        flat, offsets = _block(cells)
        a, b = (from_samples(c) for c in cells)
        assert _w2sq_pairs((flat, offsets), np.array([1]), 0).tolist() == [w2sq(b, a)]
        assert _w2sq_pairs((flat, offsets), np.array([0]), 1).tolist() == [w2sq(a, b)]
        edges, widths, take = _block_grid((flat, offsets), np.arange(2))
        ref_edges, ref_widths, ref_values = _searchsorted_grid([a, b])
        assert edges.tobytes() == ref_edges.tobytes()
        assert widths.tobytes() == ref_widths.tobytes()
        assert take(0, 2).tobytes() == ref_values.tobytes()


class TestEqualSizeIntegral:
    """On the k/n grid the integral is np.mean's value, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rows=st.integers(1, 12), n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_matches_np_mean(self, rows, n, seed):
        f = np.random.default_rng(seed).normal(0.0, 10.0, (rows, n)) ** 2
        assert empirical._integral(None, f).tobytes() == np.mean(f, axis=-1).tobytes()
        assert empirical._integral(None, f[0]).tobytes() == np.mean(f[0]).tobytes()


class TestGather:
    """Members' values come from one gather, with the bits of searchsorted."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), members=st.integers(2, 40), max_n=st.sampled_from([5, 300, 3000]))
    def test_gather_matches_searchsorted_grid(self, data, members, max_n):
        one_count = data.draw(st.booleans())
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        sizes = np.full(members, rng.integers(1, max_n + 1)) if one_count else \
            rng.integers(1, max_n + 1, size=members)
        cells = [_samples(rng, int(n), bool(rng.integers(2))) for n in sizes]
        flat, offsets = _block(cells)
        edges, widths, take = _block_grid((flat, offsets), np.arange(members))
        ref_edges, ref_widths, ref_values = _searchsorted_grid([from_samples(c) for c in cells])
        assert edges.tobytes() == ref_edges.tobytes()
        if ref_widths is None:
            assert widths is None
        else:
            assert widths.tobytes() == ref_widths.tobytes()
        assert take(0, members).tobytes() == ref_values.tobytes()
        cut = data.draw(st.integers(0, members))
        assert np.concatenate([take(0, cut), take(cut, members)]).tobytes() == ref_values.tobytes()

    def test_rows_of_a_block_in_any_order(self):
        rng = np.random.default_rng(4)
        cells = [rng.normal(size=n) for n in (7, 3, 12, 5, 3)]
        flat, offsets = _block(cells)
        rows = np.array([3, 0, 4])
        _, _, take = _block_grid((flat, offsets), rows)
        ref = _searchsorted_grid([from_samples(cells[r]) for r in rows.tolist()])
        assert take(0, 3).tobytes() == ref[2].tobytes()


def _ragged_outcomes(m):
    """Every held-out loss array, trial log and estimate of a matrix, and a
    barycenter of all its column-0 cells, as bytes and reprs."""
    out = []
    for i in range(m.n_rows):
        state = _RowState(m, i)
        for v in np.flatnonzero(m.mask[i]).tolist():
            out.append(state.heldout_losses(m, v, 1).tobytes())
    for i, j in m.missing_cells():
        report = tune_eta(m, i, j, TuneConfig(budget=8))
        est = impute(m, i, j, report.best_eta).estimate
        quantiles = est.samples if hasattr(est, "samples") else np.append(est.edges, est.values)
        out.append((repr(report), quantiles.tobytes()))
    cells = [m.entry(r, 0) for r in range(m.n_rows) if m.mask[r, 0]]
    bary = step_barycenter(cells)
    out.append(np.append(bary.edges, bary.values).tobytes())
    return out


class TestBoundedMemory:
    """Gathering and summing a chunk of rows at a time changes no bit."""

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_chunked_sums_match_one_pass(self, monkeypatch, rows):
        rng = np.random.default_rng(30)
        # column 0 ragged, column 3 one sample count (an equal-size block)
        entries = [[rng.normal(r % 4, 1.0, int(rng.integers(1, 30))) for _ in range(3)]
                   + [rng.normal(r % 4, 1.0, 6)] for r in range(9)]
        for r in range(9):
            entries[r][(r + 1) % 4] = None
        expected = _ragged_outcomes(DistributionalMatrix(entries))
        monkeypatch.setattr(empirical, "_chunk_rows", lambda width: rows)
        assert _ragged_outcomes(DistributionalMatrix(entries)) == expected

    def test_budget_keeps_benchmark_sized_grids_in_one_chunk(self):
        # the ragged benchmark panel: 30 rows, n 100-200, about 3,890 pieces
        assert empirical._chunk_rows(3_890) >= 30
        assert empirical._chunk_rows(2 * empirical._GATHER_ELEMENTS) == 1
