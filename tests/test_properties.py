"""Randomized invariant suites over the core operations.

Seeded generators and hypothesis strategies stand in for real data; each
suite states the invariant it drives and fails on the first counterexample.
"""

import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnn import (
    DistributionalMatrix,
    EmpiricalDistribution,
    MaskSpec,
    TuneConfig,
    apply_mcar,
    empirical,
    find_neighbors,
    from_samples,
    impute,
    row_distance,
    shared_columns,
    tune_eta,
    w2_equal_n,
    w2_general,
    w2sq,
)
from distnn.cli import main as cli_main
from distnn.errors import DistnnError, NoNeighborsError
from distnn.estimator import _RowState, _w2sq_table
from distnn.panel import Panel, write_matrix_json


def random_distribution(rng, max_n=8, integer_grid=False):
    n = int(rng.integers(1, max_n + 1))
    if integer_grid:
        return from_samples(rng.integers(-6, 7, size=n).astype(float))
    return from_samples(rng.normal(size=n) * rng.uniform(0.5, 3.0))


class TestMetricAxioms:
    def test_random_triples(self):
        rng = np.random.default_rng(314)
        for _ in range(2000):
            a = random_distribution(rng)
            b = random_distribution(rng)
            c = random_distribution(rng)
            dab = w2_general(a, b)
            dba = w2_general(b, a)
            dac = w2_general(a, c)
            dcb = w2_general(c, b)
            assert dab >= 0.0
            assert dab == dba
            assert dab <= dac + dcb + 1e-12

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            a = random_distribution(rng)
            assert w2_general(a, a) == 0.0
            b = random_distribution(rng)
            same = a.n == b.n and np.array_equal(a.samples, b.samples)
            if not same:
                # distinct sorted atom arrays of equal size are distinct measures
                if a.n == b.n:
                    assert w2_general(a, b) > 0.0


class TestEqualGeneralAgreement:
    def test_squared_distances_match_to_twelve_digits(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            a = from_samples(rng.normal(size=n))
            b = from_samples(rng.normal(size=n))
            ge = w2_general(a, b) ** 2
            eq = w2_equal_n(a, b) ** 2
            assert ge == pytest.approx(eq, rel=1e-12, abs=1e-18)

    def test_accumulation_accuracy_at_a_million_samples(self):
        # pairwise summation keeps the known shift distance exact to 1e-12
        # relative even for very long arrays
        rng = np.random.default_rng(42)
        base = np.sort(rng.normal(size=1_000_000))
        a = from_samples(base)
        b = from_samples(base + 3.0)
        assert w2_equal_n(a, b) == pytest.approx(3.0, rel=1e-12)
        assert w2sq(a, b) == pytest.approx(9.0, rel=1e-12)


class TestShiftEquivariance:
    def test_joint_shift_invariance_on_integer_grid(self):
        rng = np.random.default_rng(55)
        for _ in range(300):
            a = random_distribution(rng, integer_grid=True)
            b = random_distribution(rng, integer_grid=True)
            c = float(rng.integers(-20, 21))
            shifted_a = from_samples(a.samples + c)
            shifted_b = from_samples(b.samples + c)
            assert w2_general(shifted_a, shifted_b) == w2_general(a, b)

    def test_self_shift_distance_is_shift_magnitude(self):
        rng = np.random.default_rng(56)
        for _ in range(300):
            a = random_distribution(rng, integer_grid=True)
            c = float(rng.integers(-20, 21))
            assert w2_general(a, from_samples(a.samples + c)) == abs(c)


class TestNeighborMonotonicity:
    def test_eta_nesting_on_random_masked_matrices(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n_rows, n_cols = int(rng.integers(3, 7)), int(rng.integers(3, 6))
            entries = []
            for _ in range(n_rows):
                entries.append(
                    [
                        rng.normal(size=3) if rng.random() < 0.8 else None
                        for _ in range(n_cols)
                    ]
                )
            entries[0][0] = rng.normal(size=3)
            m = DistributionalMatrix(entries)
            etas = np.sort(rng.uniform(0.0, 10.0, size=4))
            previous = set()
            for eta in etas:
                members = set(find_neighbors(m, 0, 0, float(eta)).rows.tolist())
                assert previous <= members
                previous = members


class TestColumnExclusion:
    def test_target_column_perturbation_leaves_distances_unchanged(self):
        rng = np.random.default_rng(88)
        for _ in range(30):
            rows = [[rng.normal(size=4) for _ in range(4)] for _ in range(5)]
            m = DistributionalMatrix(rows)
            j = int(rng.integers(4))
            ns = find_neighbors(m, 0, j, eta=np.inf)
            perturbed = [
                [
                    cell + (rng.normal(size=4) * 50 if c == j else 0.0)
                    for c, cell in enumerate(row)
                ]
                for row in rows
            ]
            ns2 = find_neighbors(DistributionalMatrix(perturbed), 0, j, eta=np.inf)
            assert np.array_equal(ns.rows, ns2.rows)
            assert np.array_equal(ns.distances, ns2.distances)


class TestBarycenterCrossChecks:
    def test_step_barycenter_quantiles_average_members(self):
        rng = np.random.default_rng(101)
        from distnn import step_barycenter

        for _ in range(100):
            ds = [random_distribution(rng) for _ in range(int(rng.integers(1, 5)))]
            bary = step_barycenter(ds)
            ts = rng.uniform(0.01, 0.99, size=8)
            expected = np.mean([d.quantile(ts) for d in ds], axis=0)
            assert np.allclose(bary.quantile(ts), expected, rtol=0, atol=1e-12)

    def test_w2sq_consistent_between_representations(self):
        rng = np.random.default_rng(202)
        from distnn import StepQuantile

        for _ in range(200):
            d = random_distribution(rng)
            as_step = StepQuantile(d.step_edges(), d.samples)
            e = random_distribution(rng)
            assert w2sq(as_step, e) == pytest.approx(w2sq(d, e), rel=1e-12, abs=1e-18)


@st.composite
def masked_matrices(draw, max_rows=6, max_cols=5, seeded_values=False):
    """Random masks over 2-``max_rows`` rows and 1-``max_cols`` columns;
    sample counts are equal across the matrix or drawn per cell.

    ``seeded_values`` instead draws the mask (a cell observed with
    probability 3/4), the per-cell sample counts and the samples from a
    generator that hypothesis seeds: drawn floats shrink towards a few
    repeated values, whose ties between row distances can hide which rows a
    nearest-k prefix holds.
    """
    n_rows = draw(st.integers(2, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    ragged = draw(st.booleans())
    n = draw(st.integers(1, 5))
    if seeded_values:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return DistributionalMatrix([
            [rng.normal(rng.normal(0.0, 3.0), rng.uniform(0.5, 3.0),
                        rng.integers(1, 6) if ragged else n)
             if rng.random() < 0.75 else None for _ in range(n_cols)]
            for _ in range(n_rows)
        ])
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    entries = []
    for _ in range(n_rows):
        row = []
        for _ in range(n_cols):
            size = draw(st.integers(1, 5)) if ragged else n
            row.append(draw(st.lists(values, min_size=size, max_size=size))
                       if draw(st.booleans()) else None)
        entries.append(row)
    return DistributionalMatrix(entries)


def assert_close(got, expected):
    if math.isinf(expected):
        assert got == expected
    else:
        assert abs(got - expected) <= 1e-12 * abs(expected)


class TestDistanceEngine:
    """The per-row table gives rho(i, u) of the per-pair reference."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(m=masked_matrices(), min_overlap=st.integers(1, 3))
    def test_table_matches_per_pair_reference(self, m, min_overlap):
        for i in range(m.n_rows):
            state = _RowState(m, i, min_overlap)
            for j in range(m.n_cols):
                for u in range(m.n_rows):
                    if u == i:
                        continue
                    assert state.overlaps[u, j] == shared_columns(m, i, u, j).shape[0]
                    assert_close(state.dists[u, j], row_distance(m, i, u, j, min_overlap))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(m=masked_matrices(), min_overlap=st.integers(1, 3))
    def test_find_neighbors_reports_reference_distances(self, m, min_overlap):
        for i in range(m.n_rows):
            for j in range(m.n_cols):
                ns = find_neighbors(m, i, j, math.inf, min_overlap)
                expected = [
                    u for u in range(m.n_rows)
                    if u != i and m.mask[u, j]
                    and math.isfinite(row_distance(m, i, u, j, min_overlap))
                ]
                assert ns.rows.tolist() == expected
                for u, d, c in zip(ns.rows, ns.distances, ns.overlap_counts):
                    assert c == shared_columns(m, i, u, j).shape[0]
                    assert_close(d, row_distance(m, i, u, j, min_overlap))

    def test_column_translated_far_away_is_left_out_exactly(self):
        # Column 3 puts rows 1 and 2 1e4 away from row 0, a W2^2 of 1e8
        # against 1e-6 and 4e-6 on the other columns. Leaving column 3 out
        # must not subtract it from a total that holds it.
        rng = np.random.default_rng(5)
        base = [np.round(rng.normal(size=4), 3) for _ in range(4)]
        rows = [base] + [
            [cell + (0.001 * r if c < 3 else 1e4) for c, cell in enumerate(base)]
            for r in (1, 2)
        ]
        m = DistributionalMatrix(rows)
        dists = _RowState(m, 0, 1).dists[:, 3]
        ns = find_neighbors(m, 0, 3, math.inf)
        for u in (1, 2):
            expected = row_distance(m, 0, u, 3)
            assert expected == pytest.approx(1e-6 * u * u, rel=1e-6)
            assert_close(dists[u], expected)
            assert_close(ns.distances[u - 1], expected)


def _cell_outcome(m, i, j, min_overlap):
    """Tuning report, neighbour set and estimate of cell (i, j), down to the
    bits (repr of a float round-trips); an error as its type and message."""
    try:
        report = tune_eta(m, i, j, TuneConfig(budget=6, min_overlap=min_overlap))
        eta, tuned = report.best_eta, repr(report)
    except DistnnError as exc:
        eta, tuned = math.inf, (type(exc).__name__, str(exc))
    try:
        result = impute(m, i, j, eta, min_overlap=min_overlap)
    except DistnnError as exc:
        return tuned, (type(exc).__name__, str(exc))
    ns, est = result.neighbors, result.estimate
    quantiles = est.samples if hasattr(est, "samples") else np.append(est.edges, est.values)
    return tuned, (ns.target_row, ns.target_col, repr(ns.eta), ns.rows.tobytes(),
                   ns.distances.tobytes(), ns.overlap_counts.tobytes(),
                   quantiles.tobytes(), repr(result.summaries))


def _cold_copy(m):
    """The same matrix as a new object, which holds no work from earlier calls."""
    return DistributionalMatrix(
        [[m.entry(i, j) for j in range(m.n_cols)] for i in range(m.n_rows)]
    )


class TestPerRowReuse:
    """Work kept from one cell of a row for the next changes no result."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(m=masked_matrices(max_rows=7, max_cols=6, seeded_values=True), data=st.data())
    def test_every_cell_matches_a_cold_matrix(self, m, data):
        cells = [(i, j, mo) for i in range(m.n_rows) for j in range(m.n_cols)
                 for mo in (1, 2, 3)]
        for i, j, mo in data.draw(st.permutations(cells)):
            assert _cell_outcome(m, i, j, mo) == _cell_outcome(_cold_copy(m), i, j, mo)

    def test_threads_sharing_a_matrix_match_a_cold_matrix(self):
        rng = np.random.default_rng(11)
        m = DistributionalMatrix([
            [rng.normal(r % 3, 1.0, int(rng.integers(3, 6))) if rng.random() < 0.8 else None
             for _ in range(5)]
            for r in range(8)
        ])
        cells = [(i, j, mo) for i in range(m.n_rows) for j in range(m.n_cols)
                 for mo in (1, 2)]
        expected = {cell: _cell_outcome(_cold_copy(m), *cell) for cell in cells}
        n_threads = 4
        got, errors = {}, []

        def work(start):
            # threads in a pair walk the same cells at once and race to fill
            # one row's work; the two pairs keep replacing each other's row
            # in the matrix's one slot
            try:
                for cell in cells[start:] + cells[:start]:
                    got.setdefault(cell, []).append(_cell_outcome(m, *cell))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k // 2 * len(cells) // 2,))
                   for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert got == {cell: [out] * n_threads for cell, out in expected.items()}


class TestKeptRowTables:
    """A row table takes the pairs of the tables kept before it, by symmetry."""

    @pytest.mark.parametrize("budget", [None, 16])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(m=masked_matrices())
    def test_each_pair_is_symmetric_bit_for_bit(self, budget, m):
        # a budget of 16 values keeps no table and takes a ragged column's
        # pairs one or a few at a time
        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(empirical, "_GATHER_ELEMENTS", budget)
            tables = [_w2sq_table(_cold_copy(m), i) for i in range(m.n_rows)]
        for i in range(m.n_rows):
            for u in range(m.n_rows):
                assert tables[i][u].tobytes() == tables[u][i].tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(m=masked_matrices(max_rows=7, max_cols=6, seeded_values=True), data=st.data())
    def test_tables_in_any_row_order_match_cold_tables(self, m, data):
        order = data.draw(st.lists(st.integers(0, m.n_rows - 1), min_size=1, max_size=2 * m.n_rows))
        for i in order:
            table = _w2sq_table(m, i)
            assert not table.flags.writeable
            assert table.tobytes() == _w2sq_table(_cold_copy(m), i).tobytes()
        assert sorted(m._tables) == sorted(set(order))
        assert all(m._tables[i] is _w2sq_table(m, i) for i in order)
        observed = m.observed_cells()
        if not observed:
            return
        i, j = data.draw(st.sampled_from(observed))
        kept = dict(m._tables)
        masked = m.mask_cell(i, j)
        assert masked._tables == {}
        for r in data.draw(st.permutations(range(m.n_rows))):
            table = _w2sq_table(masked, r)
            assert table.tobytes() == _w2sq_table(_cold_copy(masked), r).tobytes()
            assert np.all(np.isnan(table[:, j] if r == i else table[i, j]))
        assert m._tables.keys() == kept.keys()
        assert all(m._tables[r] is table for r, table in kept.items())


@st.composite
def full_matrices(draw, max_rows=7, max_cols=5):
    """Fully observed matrices from a generator that hypothesis seeds; the
    sample counts are one for the whole matrix, one per column (equal-size
    blocks) or drawn per cell (ragged blocks)."""
    n_rows, n_cols = draw(st.integers(2, max_rows)), draw(st.integers(1, max_cols))
    sizes = draw(st.sampled_from(["matrix", "column", "cell"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = rng.integers(1, 6, size=(n_rows, n_cols))
    if sizes == "matrix":
        n[:] = n[0, 0]
    elif sizes == "column":
        n[:] = n[0]
    return DistributionalMatrix([
        [rng.normal(rng.normal(0.0, 3.0), rng.uniform(0.5, 3.0), n[r, c]) for c in range(n_cols)]
        for r in range(n_rows)
    ])


def assert_same_as_cold(masked):
    """Row tables, tuning logs and estimates of every cell equal those of a
    rebuilt matrix that holds no samples in the hidden cells."""
    cold = _cold_copy(masked)
    assert np.array_equal(cold.mask, masked.mask)
    for r in range(masked.n_rows):
        assert _w2sq_table(masked, r).tobytes() == _w2sq_table(cold, r).tobytes()
        for c in range(masked.n_cols):
            assert _cell_outcome(masked, r, c, 1) == _cell_outcome(cold, r, c, 1)


class TestHiddenCells:
    """A cell hidden by mask_cell or apply_mcar keeps its samples in the
    shared column block; no result may read them."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(m=full_matrices(), data=st.data())
    def test_masked_matrices_match_a_cold_rebuild(self, m, data):
        i = data.draw(st.integers(0, m.n_rows - 1))
        j = data.draw(st.integers(0, m.n_cols - 1))
        spec = MaskSpec(p=data.draw(st.sampled_from([0.5, 0.8, 1.0])),
                        seed=data.draw(st.integers(0, 2**16)))
        assert_same_as_cold(m.mask_cell(i, j))
        assert_same_as_cold(apply_mcar(m, spec, protect=(i, j)))

    def test_far_hidden_samples_do_not_leak(self):
        rng = np.random.default_rng(21)
        rows = [[rng.normal(r, 1.0, 4) for _ in range(3)] for r in range(6)]
        rows[2][1] = 1e6 + rng.normal(size=4)
        m = DistributionalMatrix(rows)
        for masked in (m.mask_cell(2, 1), apply_mcar(m, MaskSpec(p=1.0), protect=(2, 1))):
            assert masked.entry(2, 1) is None and masked.missing_cells() == [(2, 1)]
            assert_same_as_cold(masked)
            for r in range(6):
                column = _w2sq_table(masked, r)[:, 1]
                assert np.isnan(column[2]) and np.all(np.isnan(column) | (column < 1e3))
                assert np.max(impute(masked, r, 1, math.inf).estimate.samples) < 1e3
            report = tune_eta(masked, 0, 0, TuneConfig(budget=6))
            assert all(t.mean_loss < 1e3 for t in report.trials)

    def test_hidden_odd_sized_cell_keeps_equal_size_results(self):
        # column 1 holds 3 samples per cell except the hidden cell's 5, which
        # stay in its stored block while every visible cell has 3
        rng = np.random.default_rng(22)
        rows = [[rng.normal(r, 1.0, 3) for _ in range(3)] for r in range(5)]
        rows[2][1] = rng.normal(2.0, 1.0, 5)
        masked = DistributionalMatrix(rows).mask_cell(2, 1)
        assert_same_as_cold(masked)
        result = impute(masked, 2, 1, math.inf)
        assert isinstance(result.estimate, EmpiricalDistribution)
        assert result.estimate.n == 3
        for r in (0, 1, 3, 4):
            ns = find_neighbors(masked, r, 0, math.inf)
            assert ns.distances.tolist() == [
                row_distance(masked, r, u, 0) for u in ns.rows.tolist()]


class TestUnobservedColumn:
    """A column that no cell observes is stored as an empty block, and no
    result of the other cells reads it."""

    @staticmethod
    def _panels():
        # columns 0 and 1 ragged, 2 and 3 of one sample count, 4 unobserved
        rng = np.random.default_rng(24)
        rows = [[rng.normal(r % 3, 1.0, int(rng.integers(2, 7))) for _ in range(2)]
                + [rng.normal(r % 3, 1.0, 4) for _ in range(2)] for r in range(7)]
        for r, c in ((0, 1), (3, 0), (5, 2), (6, 3)):
            rows[r][c] = None
        return (DistributionalMatrix(rows),
                DistributionalMatrix([row + [None] for row in rows]))

    def test_entries_tables_and_other_cells(self):
        base, m = self._panels()
        assert m._blocks[4][0].shape == (0,)
        for i in range(m.n_rows):
            assert m.entry(i, 4) is None
            assert np.all(np.isnan(_w2sq_table(m, i)[:, 4]))
            with pytest.raises(NoNeighborsError):
                impute(m, i, 4, math.inf)
            for j in range(base.n_cols):
                for mo in (1, 2):
                    assert _cell_outcome(m, i, j, mo) == _cell_outcome(base, i, j, mo)

    def test_all_missing_lists_the_column_under_failures(self, tmp_path):
        outputs = []
        for name, m in zip(("base", "empty"), self._panels()):
            cols = ("a", "b", "c", "d", "w")[:m.n_cols]
            panel = Panel(m, tuple(f"r{r}" for r in range(m.n_rows)), cols)
            write_matrix_json(panel, tmp_path / f"{name}.json")
            out = tmp_path / f"{name}_out.json"
            assert cli_main(["impute", "--input", str(tmp_path / f"{name}.json"),
                             "--all-missing", "--tune", "--budget", "5",
                             "--output", str(out)]) == 0
            outputs.append(json.loads(out.read_text(encoding="utf-8")))
        base, empty = outputs
        assert empty["results"] == base["results"]
        assert [(f["row"], f["col"]) for f in empty["failures"] if f["col"] == "w"] == [
            (f"r{r}", "w") for r in range(7)]
        assert [f for f in empty["failures"] if f["col"] != "w"] == base["failures"]
