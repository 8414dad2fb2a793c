"""Merged breakpoint grids read straight from a column block.

The row table's batched pairs, the gather of members' values, the chunked
running sums and the matrix's kept ragged grids must give the bits of the
per-pair and per-member computations they replace.
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnn import (DgpSpec, DistributionalMatrix, MaskSpec, TuneConfig, apply_mcar, from_samples,
                    generate, impute, step_barycenter, tune_eta, w2sq)
from distnn import empirical
from distnn.empirical import _block_grid, _w2sq_pairs
from distnn.estimator import _RowState, _w2sq_table
from test_properties import _cell_outcome, _cold_copy


def _block(cells):
    """A column block (samples back to back, cell starts, sample counts)
    holding sorted ``cells``, None where a cell is missing."""
    sizes = np.array([0 if c is None else c.size for c in cells])
    values = np.concatenate([np.sort(c) for c in cells if c is not None])
    return values, np.cumsum(sizes) - sizes, sizes


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
        ds = [from_samples(c) for c in cells]
        for i in range(len(cells)):
            rows = np.array([u for u in range(len(cells)) if u != i])
            got = _w2sq_pairs(_block(cells), rows, i)
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
        block = _block(cells)
        a, b = (from_samples(c) for c in cells)
        assert _w2sq_pairs(block, np.array([1]), 0).tolist() == [w2sq(b, a)]
        assert _w2sq_pairs(block, np.array([0]), 1).tolist() == [w2sq(a, b)]
        edges, widths, take = _block_grid(block, np.arange(2))
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
        ref_edges, ref_widths, ref_values = _searchsorted_grid([from_samples(c) for c in cells])
        cut = data.draw(st.integers(0, members))
        edges, widths, take = _block_grid(_block(cells), np.arange(members))
        assert edges.tobytes() == ref_edges.tobytes()
        if ref_widths is None:
            assert widths is None
        else:
            assert widths.tobytes() == ref_widths.tobytes()
        assert take(0, members).tobytes() == ref_values.tobytes()
        assert np.concatenate([take(0, cut), take(cut, members)]).tobytes() == \
            ref_values.tobytes()

    def test_rows_of_a_block_in_any_order(self):
        rng = np.random.default_rng(4)
        cells = [rng.normal(size=n) for n in (7, 3, 12, 5, 3)]
        # the second rows share one count: the equal-count read
        for rows in (np.array([3, 0, 4]), np.array([1, 4])):
            ref = _searchsorted_grid([from_samples(cells[r]) for r in rows.tolist()])
            _, _, take = _block_grid(_block(cells), rows)
            assert take(0, rows.size).tobytes() == ref[2].tobytes()


def _column_losses(block, rows):
    """Reference held-out losses of one column: the barycenter of cells
    rows[:k] against cell rows[-1], from one ``np.cumsum`` down the column's
    merged grid, NaN at k = 0."""
    _, widths, take = _block_grid(block, rows)
    values = take(0, rows.size)
    sums = np.cumsum(values[:-1], axis=0)
    sums /= np.arange(1, rows.size)[:, None]
    sums -= values[-1]
    sums *= sums
    return np.concatenate(([np.nan], empirical._integral(widths, sums)))


class TestRowLosses:
    """One row's held-out losses over all its columns at once have the bits
    of a cumulative sum per column."""

    @staticmethod
    def _columns():
        rng = np.random.default_rng(33)
        equal = [rng.normal(size=8) for _ in range(9)]
        ragged = [rng.normal(r % 3, 1.0, int(rng.integers(1, 40))) for r in range(9)]
        return [
            (_block(equal), np.array([4, 0, 7, 2, 8, 1, 5, 3])),
            (_block(ragged), np.array([7, 1, 8, 3, 0, 5, 6, 4])),
            (_block(ragged), np.array([2, 6, 0, 3, 4])),
            (_block(equal), np.array([1, 3, 6, 8, 5, 2])),
            (_block(ragged), np.array([3])),  # no ranked row
            (_block(equal), np.array([6, 0])),  # one ranked row
        ]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, None])
    def test_matches_one_cumulative_sum_per_column(self, monkeypatch, chunk):
        columns = self._columns()
        expected = [_column_losses(block, rows).tobytes() for block, rows in columns]
        if chunk is not None:  # rows of the slab per chunk
            width = sum(_block_grid(block, rows)[0].size for block, rows in columns if rows.size > 1)
            monkeypatch.setattr(empirical, "_GATHER_ELEMENTS", chunk * width)
        got = empirical._row_losses(columns)
        assert [losses.tobytes() for losses in got] == expected
        assert [losses.size for losses in got] == [rows.size for _, rows in columns]

    def test_columns_without_ranked_rows(self):
        block = _block([np.arange(3.0), np.arange(5.0)])
        got = empirical._row_losses([(block, np.array([0])), (block, np.array([1]))])
        assert [losses.size for losses in got] == [1, 1] and np.isnan(got).all()
        assert empirical._row_losses([]) == []

    def test_rows_past_a_column_hold_no_stale_values(self, monkeypatch):
        # one row per chunk: squaring a finished column's last values again
        # in each later chunk would overflow (a warning, an error here)
        rng = np.random.default_rng(34)
        cells = [rng.normal(0.0, 1e30, 6) for _ in range(8)]
        columns = [(_block(cells), np.array([3, 0])), (_block(cells), np.array([1, 2, 4, 5, 6, 7, 0]))]
        expected = [_column_losses(block, rows).tobytes() for block, rows in columns]
        monkeypatch.setattr(empirical, "_GATHER_ELEMENTS", 1)
        assert [losses.tobytes() for losses in empirical._row_losses(columns)] == expected

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), cells=ragged_columns(max_cells=10, max_n=60))
    def test_random_columns(self, data, cells):
        columns = []
        for _ in range(4):
            rows = data.draw(st.permutations(range(len(cells))))
            cut = data.draw(st.integers(1, len(cells)))
            columns.append((_block(cells), np.array(rows[:cut])))
        expected = [_column_losses(block, rows).tobytes() for block, rows in columns]
        assert [losses.tobytes() for losses in empirical._row_losses(columns)] == expected

    def test_wide_column_among_narrow_ones_stays_proportional(self, monkeypatch):
        # 200 columns of 4-sample cells and one whose held-out cell holds
        # 4,999 samples: padding every column to the wide one's grid would
        # take 201 x 5,002 values per slab row
        rng = np.random.default_rng(35)
        narrow = [_block([rng.normal(size=4) for _ in range(40)]) for _ in range(200)]
        wide = _block([rng.normal(size=4) for _ in range(39)] + [rng.normal(size=4_999)])
        columns = [(block, np.arange(40)) for block in narrow + [wide]]
        samples = sum(int(sizes[rows].sum()) for (_, _, sizes), rows in columns)
        monkeypatch.setattr(empirical, "_GATHER_ELEMENTS", 1 << 14)
        tracemalloc.start()
        try:
            got = empirical._row_losses(columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * (samples + empirical._GATHER_ELEMENTS)
        assert [losses.tobytes() for losses in got] == [
            _column_losses(block, rows).tobytes() for block, rows in columns]


def _ragged_outcomes(m):
    """Every held-out loss array, trial log and estimate of a matrix, and a
    barycenter of all its column-0 cells, as bytes and reprs."""
    out = []
    for i in range(m.n_rows):
        state = _RowState(m, i, 1)
        columns = [(m._blocks[v], np.append(state.ranked[v], i)) for v in np.flatnonzero(m.mask[i])]
        out += [losses.tobytes() for losses in empirical._row_losses(columns)]
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

    def test_skewed_column_stays_proportional_to_its_samples(self):
        # one cell of 20,000 samples among 300 of 4: +inf-padded rows would
        # hold 75 times the column's samples, and the large cell's 300 pairs
        # in one pass about 6,000,000 grid pieces in each of a dozen arrays
        rng = np.random.default_rng(31)
        cells = [rng.normal(size=4) for _ in range(300)] + [rng.normal(size=20_000)]
        m = DistributionalMatrix([[c, c[:2]] for c in cells])
        generated, _ = generate(DgpSpec(n_per_entry=(3, 40, 7)), 5, 3)
        for values, _, sizes in m._blocks + generated._blocks:
            assert values.ndim == 1 and values.nbytes == 8 * sizes.sum()
        for i in (0, 300):
            others = [u for u in range(m.n_rows) if u != i]
            tracemalloc.start()
            try:
                table = _w2sq_table(m, i)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 12 * 8 * empirical._GATHER_ELEMENTS
            assert table[others, 0].tolist() == [w2sq(m.entry(u, 0), m.entry(i, 0)) for u in others]

    def test_pair_table_drops_each_array_after_its_last_read(self):
        # one cell of 20,000 samples among 1,000 of 4: each chunk of its
        # pairs fills the budget, and the table holds at most seven arrays
        # of a chunk's size at once
        rng = np.random.default_rng(31)
        cells = [rng.normal(size=4) for _ in range(1_000)] + [rng.normal(size=20_000)]
        m = DistributionalMatrix([[c, c[:2]] for c in cells])
        tracemalloc.start()
        try:
            table = _w2sq_table(m, 1_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 8 * empirical._GATHER_ELEMENTS
        big = m.entry(1_000, 0)
        assert table[:1_000, 0].tolist() == [w2sq(m.entry(u, 0), big) for u in range(1_000)]

    def test_ragged_barycenter_frees_each_chunk_before_the_next(self):
        # one cell of 200,000 samples among 11 of 2: a grid of about 200,000
        # pieces, so the gather budget takes the 12 members in 3 chunks
        rng = np.random.default_rng(33)
        ds = [from_samples(rng.normal(size=2)) for _ in range(11)]
        ds.append(from_samples(rng.normal(size=200_000)))
        tracemalloc.start()
        try:
            bary = step_barycenter(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * empirical._GATHER_ELEMENTS
        edges, _, values = _searchsorted_grid(ds)
        assert bary.edges.tobytes() == edges.tobytes()
        assert bary.values.tobytes() == ((0.0 + np.cumsum(values, axis=0)[-1]) / len(ds)).tobytes()

    def test_back_to_back_samples_change_no_bit(self):
        # column 0 skewed by one large cell, column 1 observed in four rows,
        # column 2 of one count: each read equals the per-pair and
        # per-member references built from the raw cells
        rng = np.random.default_rng(32)
        entries = [[rng.normal(r % 4, 1.0, int(rng.integers(1, 7)))]
                   + [rng.normal(r % 4, 1.0, n) for n in (3, 2)] for r in range(24)]
        entries[5][0] = rng.normal(1.0, 1.0, 300)  # one large cell in column 0
        entries[6][0] = None
        for r in range(24):
            if r % 6:
                entries[r][1] = None  # column 1 observed in four rows, one count
        m = DistributionalMatrix(entries)
        ds = [[None if c is None else from_samples(c) for c in row] for row in entries]
        for i in range(m.n_rows):
            table = _w2sq_table(m, i)
            for u in range(m.n_rows):
                for c in range(m.n_cols):
                    if u != i and ds[u][c] is not None and ds[i][c] is not None:
                        assert table[u, c] == _reference_w2sq(ds[u][c], ds[i][c])
        for c in range(m.n_cols):
            column = [row[c] for row in ds if row[c] is not None]
            assert [m.entry(r, c) is None for r in range(m.n_rows)] == [row[c] is None for row in ds]
            assert all(m.entry(r, c).samples.tobytes() == ds[r][c].samples.tobytes()
                       for r in range(m.n_rows) if ds[r][c] is not None)
            edges, _, values = _searchsorted_grid(column)
            bary = step_barycenter([m.entry(r, c) for r in range(m.n_rows) if m.mask[r, c]])
            assert bary.edges.tobytes() == edges.tobytes()
            assert bary.values.tobytes() == ((0.0 + np.cumsum(values, axis=0)[-1]) / len(column)).tobytes()


def _reference_w2sq(a, b):
    """W2² of two empirical distributions from :func:`_searchsorted_grid`:
    the mean squared order-statistic gap for one count, else the
    width-weighted sum over the merged grid."""
    _, widths, (va, vb) = _searchsorted_grid([a, b])
    gap = (va - vb) ** 2
    return float(np.mean(gap) if widths is None else np.sum(widths * gap))


class TestBlockRows:
    """Equal-count cells read whole through the strided window are the
    per-cell slices of the block, and the window never reads past it."""

    @staticmethod
    def _guarded(block):
        """The block with its values a view into a NaN-filled buffer, so that
        a read past either end would show as NaN."""
        values, starts, sizes = block
        buffer = np.full(values.size + 20, np.nan)
        buffer[10:-10] = values
        view = buffer[10:-10]
        view.setflags(write=False)
        return view, starts, sizes

    @staticmethod
    def _expected(block, rows, n):
        values, starts, _ = block
        return np.array([values[starts[r]:starts[r] + n] for r in rows.tolist()]).reshape(rows.size, n)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), cells=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_per_cell_slices(self, data, cells, seed):
        # counts 0 (missing) to 4, so that cells of one count sit between
        # missing cells and cells of other counts
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 5, size=cells)
        counts[rng.integers(cells)] = max(1, counts.max())
        block = self._guarded(_block([rng.normal(size=n) if n else None for n in counts.tolist()]))
        sizes = block[2]
        n = data.draw(st.sampled_from(sorted(set(sizes[sizes > 0].tolist()))))
        same = np.flatnonzero(sizes == n)
        rows = np.array(data.draw(st.lists(st.sampled_from(same.tolist()), min_size=1, max_size=8)))
        got = empirical._block_rows(block, rows, n)
        assert got.tobytes() == self._expected(block, rows, n).tobytes()
        assert not np.isnan(got).any()

    @pytest.mark.parametrize("counts", [(3, 5, 3), (5,), (0, 2, 0, 4, 2, 0, 2), (1, 1)])
    def test_last_cell_single_cell_and_gaps(self, counts):
        rng = np.random.default_rng(sum(counts))
        block = self._guarded(_block([rng.normal(size=n) if n else None for n in counts]))
        sizes = block[2]
        for n in set(counts) - {0}:
            rows = np.flatnonzero(sizes == n)[::-1]  # the last cell first
            assert empirical._block_rows(block, rows, n).tobytes() == \
                self._expected(block, rows, n).tobytes()
        last = np.array([len(counts) - 1])
        assert empirical._block_rows(block, last, counts[-1]).tolist() == [block[0][-counts[-1]:].tolist()]

    def test_window_past_the_block_raises(self):
        rng = np.random.default_rng(36)
        block = self._guarded(_block([rng.normal(size=3), None, rng.normal(size=4)]))
        size = block[0].size
        with pytest.raises(ValueError):  # wider than the whole block
            empirical._block_rows(block, np.array([0]), size + 2)
        for rows, n in (([0], size + 1), ([2], 5), ([0, 2], 5)):
            with pytest.raises(IndexError):  # a start with too few values after it
                empirical._block_rows(block, np.array(rows), n)


def _outcomes(m, min_overlap=1, cold=False):
    """Every cell's tuning, neighbours and estimate in row-major order: on
    ``m``, whose kept grids fill as the rows go, or each on a new copy."""
    return [_cell_outcome(_cold_copy(m) if cold else m, i, j, min_overlap)
            for i in range(m.n_rows) for j in range(m.n_cols)]


def _kept_entries(m):
    """The matrix's kept ragged grids, each checked against the searchsorted
    grid of the observed cells whose counts it merges, one row per cell."""
    entries = m._grids.entries
    for (v, counts), (edges, widths, kept, at) in entries.items():
        cells = [r for r in range(m.n_rows) if m.mask[r, v] and m.entry(r, v).n in counts]
        assert {m.entry(r, v).n for r in cells} == set(counts) and len(counts) > 1
        ref_edges, ref_widths, ref_values = _searchsorted_grid([m.entry(r, v) for r in cells])
        assert edges.tobytes() == ref_edges.tobytes()
        assert widths.tobytes() == ref_widths.tobytes()
        assert kept.tobytes() == ref_values.tobytes()
        assert at[cells].tolist() == list(range(len(cells)))
    assert sum(kept.size for _, _, kept, _ in entries.values()) <= empirical._GATHER_ELEMENTS
    return entries


def _ragged_panel(seed, n_rows=8, n_cols=5):
    """Cells of 2 to 9 samples, about a quarter of them missing."""
    rng = np.random.default_rng(seed)
    return [[rng.normal(r % 3, 1.0, int(rng.integers(2, 10))) if rng.random() >= 0.25 else None
             for _ in range(n_cols)] for r in range(n_rows)]


def _far_row_panel():
    """Row 5 observes columns 0 and 1 only, so it lies at infinite distance
    from row 1, which misses column 1, when column 0 is held out, and at a
    finite one from row 2: column 0 is read with two count sets."""
    entries = _ragged_panel(40, n_rows=6, n_cols=4)
    for r in range(6):
        entries[r] = [e if e is not None else np.arange(float(r + c + 2)) for c, e in enumerate(entries[r])]
    entries[5][2] = entries[5][3] = entries[1][1] = entries[2][3] = None
    entries[5][0] = np.arange(11.0)  # a count no other cell of column 0 has
    return entries


class TestColumnGrids:
    """Held-out grids kept on a matrix across rows give the bits of a cold
    matrix, hold only observed cells and stay within the gather budget."""

    @pytest.mark.parametrize("panel, min_overlap", [
        (_far_row_panel(), 1), (_ragged_panel(41), 2), (_ragged_panel(42), 3),
    ], ids=["far-row", "min-overlap-2", "min-overlap-3"])
    def test_a_column_read_with_two_count_sets(self, panel, min_overlap):
        m = DistributionalMatrix(panel)
        assert _outcomes(m, min_overlap) == _outcomes(m, min_overlap, cold=True)
        columns = [v for v, _ in _kept_entries(m)]
        assert len(columns) > len(set(columns))

    def test_columns_past_the_budget_are_gathered_per_read(self, monkeypatch):
        panel = _ragged_panel(43, n_rows=10)
        m = DistributionalMatrix(panel)
        expected = _outcomes(m, cold=True)
        assert _outcomes(m) == expected
        sizes = [kept.size for _, _, kept, _ in _kept_entries(m).values()]
        assert len(sizes) > 2
        # a few rows' worth: room for the first two entries only
        monkeypatch.setattr(empirical, "_GATHER_ELEMENTS", sizes[0] + sizes[1])
        m = DistributionalMatrix(panel)
        assert _outcomes(m) == expected
        assert 2 <= len(_kept_entries(m)) < len(sizes)

    def test_a_hidden_cell_enters_no_grid(self):
        panel = _ragged_panel(44)
        panel[3][0] = np.arange(97.0)  # no other cell of column 0 holds 97
        panel[0][0], panel[6][0] = np.arange(5.0), np.arange(1.0, 6.0)  # row 0 observes 5
        m = DistributionalMatrix(panel).mask_cell(3, 0).mask_cell(6, 0)
        # a cold copy is built from the visible cells, without the hidden ones
        assert _outcomes(m) == _outcomes(m, cold=True)
        hidden = np.arange(1, 97) / 97
        entries = _kept_entries(m)
        assert any(v == 0 for v, _ in entries)
        assert not any(np.isin(hidden, edges).any() for edges, _, _, _ in entries.values())

    def test_threads_sharing_a_matrix_keep_the_budget(self, monkeypatch):
        panel = _ragged_panel(45, n_rows=10)
        m = DistributionalMatrix(panel)
        expected = _outcomes(m)
        sizes = [kept.size for _, _, kept, _ in _kept_entries(m).values()]
        # room for the largest entry: two built at once cannot both be kept
        monkeypatch.setattr(empirical, "_GATHER_ELEMENTS", max(sizes))
        m = DistributionalMatrix(panel)
        cells = [(i, j) for i in range(m.n_rows) for j in range(m.n_cols)]
        n_threads = 4
        got, errors = [None] * n_threads, []

        def work(k):
            # each thread starts at another row, so the threads race to
            # build and replace the matrix's kept grids
            start = k * len(cells) // n_threads
            try:
                out = [_cell_outcome(m, i, j, 1) for i, j in cells[start:] + cells[:start]]
                got[k] = out[len(cells) - start:] + out[:len(cells) - start]
            except Exception as exc:  # reported below, with the thread's result
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert got == [expected] * n_threads
        _kept_entries(m)


class TestKeptGridsOwner:
    """A matrix owns one kept-grids object, which outlives its row states; a
    masked copy starts its own, and a read past the budget costs one grid."""

    def test_rows_and_overlaps_share_one_grids_object(self):
        m = DistributionalMatrix(_ragged_panel(46))
        seen = []
        for i, min_overlap in ((0, 1), (0, 2), (1, 1)):
            for j in range(m.n_cols):
                _cell_outcome(m, i, j, min_overlap)
            seen.append((m._grids, dict(m._grids.entries)))
        assert all(grids is seen[0][0] for grids, _ in seen)
        for (_, before), (_, after) in zip(seen, seen[1:]):
            assert all(after[key] is entry for key, entry in before.items())
        assert len(seen[-1][1]) > len(seen[0][1]) > 0

    def test_copies_start_empty_and_leave_the_parent_entries(self):
        full = DistributionalMatrix([[np.arange(2.0 + (r * c) % 7) if cell is None else cell
                                      for c, cell in enumerate(row)]
                                     for r, row in enumerate(_ragged_panel(47))])
        for j in range(full.n_cols):
            _cell_outcome(full, 0, j, 1)
        entries = dict(full._grids.entries)
        assert entries
        for copy in (full.mask_cell(0, 1), apply_mcar(full, MaskSpec(p=0.7, seed=1))):
            assert copy._grids is not full._grids and copy._grids.entries == {}
            for j in range(copy.n_cols):
                _cell_outcome(copy, 0, j, 1)
            assert copy._grids.entries
            assert full._grids.entries.keys() == entries.keys()
            assert all(full._grids.entries[key] is entry for key, entry in entries.items())

    def test_a_read_past_the_budget_makes_one_grid(self, monkeypatch):
        panel = _ragged_panel(43, n_rows=10)
        m = DistributionalMatrix(panel)
        _outcomes(m)
        sizes = [kept.size for _, _, kept, _ in m._grids.entries.values()]
        # room for the first two entries only, as in TestColumnGrids
        monkeypatch.setattr(empirical, "_GATHER_ELEMENTS", sizes[0] + sizes[1])
        calls, reads = [], []
        block_grid, grid = empirical._block_grid, empirical._ColumnGrids.grid
        monkeypatch.setattr(empirical, "_block_grid",
                            lambda block, rows: calls.append(rows) or block_grid(block, rows))

        def counted(grids, v, rows):
            before, start = set(grids.entries), len(calls)
            out = grid(grids, v, rows)
            key = v, tuple(sorted(set(grids.blocks[v][2][rows].tolist())))
            reads.append((key in before, key in grids.entries, len(calls) - start))
            return out

        monkeypatch.setattr(empirical._ColumnGrids, "grid", counted)
        _outcomes(DistributionalMatrix(panel))
        # (kept before, kept after, _block_grid calls): a kept read makes
        # none, a build its rows' grid and its cells', any other read its
        # rows' grid only
        assert set(reads) == {(True, True, 0), (False, True, 2), (False, False, 1)}
