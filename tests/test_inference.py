"""Asymptotic and bootstrap confidence bands."""

import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distnn import (
    DegenerateDensityError,
    DgpSpec,
    DistributionalMatrix,
    EmptyInputError,
    NoNeighborsError,
    NonFiniteSampleError,
    OutOfDomainError,
    SigmaFunction,
    asymptotic_band,
    bootstrap_band,
    default_levels,
    from_samples,
    generate,
    impute,
    sigma_sq,
)
from distnn import empirical, estimator, inference


def uniform_sigma(width):
    """Oracle-style evaluator for a single Unif(a, a+width) neighbor:
    density is 1/width everywhere on the support."""
    return SigmaFunction(
        mode="oracle",
        density_at_quantile_fns=(lambda t: np.full_like(np.atleast_1d(t), 1.0 / width),),
    )


class TestSigmaSq:
    def test_single_uniform_neighbor(self):
        sig = uniform_sigma(3.0)
        for t in (0.1, 0.5, 0.9):
            assert sigma_sq(sig, t) == pytest.approx((t - t * t) * 9.0, rel=1e-14)

    def test_two_identical_unit_uniform_neighbors_at_half(self):
        sig = SigmaFunction(
            mode="oracle",
            density_at_quantile_fns=(
                lambda t: np.ones_like(np.atleast_1d(t)),
                lambda t: np.ones_like(np.atleast_1d(t)),
            ),
        )
        assert sigma_sq(sig, 0.5) == pytest.approx(0.25, rel=1e-14)

    def test_t_factorization_for_constant_densities(self):
        sig = uniform_sigma(2.0)
        a = sigma_sq(sig, 0.5) / (0.5 - 0.25)
        b = sigma_sq(sig, 0.25) / (0.25 - 0.0625)
        assert a == pytest.approx(b, rel=1e-14)

    def test_degenerate_density_rejected(self):
        sig = SigmaFunction(
            mode="oracle",
            density_at_quantile_fns=(lambda t: np.zeros_like(np.atleast_1d(t)),),
        )
        with pytest.raises(DegenerateDensityError):
            sigma_sq(sig, 0.5)

    def test_domain(self):
        with pytest.raises(Exception):
            sigma_sq(uniform_sigma(1.0), 0.0)

    @pytest.mark.parametrize("mode", ["oracle", "kde"])
    @pytest.mark.parametrize("t", [np.nan, [0.5, np.nan], np.inf], ids=["nan", "nan-in-grid", "inf"])
    def test_non_finite_levels_rejected(self, mode, t):
        m, truth = generate(DgpSpec(n_per_entry=30, seed=0), 3, 1)
        if mode == "oracle":
            sig = SigmaFunction.from_true_distributions(truth, [1, 2], 0)
        else:
            sig = SigmaFunction.from_samples([m.entry(1, 0), m.entry(2, 0)])
        with pytest.raises(OutOfDomainError, match="levels must lie in"):
            sigma_sq(sig, t)


def simple_result():
    m = DistributionalMatrix(
        [
            [[0.0, 1.0], None],
            [[0.0, 1.0], [2.0, 3.0]],
            [[0.0, 1.0], [4.0, 5.0]],
        ]
    )
    return m, impute(m, 0, 1, eta=1.0)


class TestAsymptoticBand:
    def test_alpha_near_one_collapses(self):
        _, result = simple_result()
        band = asymptotic_band(
            result, uniform_sigma(1.0), n_j=2, alpha=1 - 1e-12,
            levels=[0.25, 0.5, 0.75], simultaneous=False,
        )
        assert np.all(band.half_widths() < 1e-9)

    def test_half_width_scales_as_inverse_sqrt_product(self):
        _, result = simple_result()
        levels = [0.2, 0.5, 0.8]
        h1 = asymptotic_band(result, uniform_sigma(1.0), 50, 0.05, levels).half_widths()
        h2 = asymptotic_band(result, uniform_sigma(1.0), 100, 0.05, levels).half_widths()
        assert np.allclose(h1 / h2, np.sqrt(2.0), rtol=1e-12)

    def test_bonferroni_divides_alpha(self):
        from scipy import stats

        _, result = simple_result()
        levels = default_levels(20)
        sim = asymptotic_band(result, uniform_sigma(1.0), 10, 0.05, levels, simultaneous=True)
        point = asymptotic_band(result, uniform_sigma(1.0), 10, 0.05, levels, simultaneous=False)
        # per-level alpha' = 0.05 / 20 = 0.0025
        ratio = sim.half_widths() / point.half_widths()
        expected = stats.norm.ppf(1 - 0.0025 / 2) / stats.norm.ppf(1 - 0.05 / 2)
        assert np.allclose(ratio, expected, rtol=1e-12)

    def test_band_centered_on_estimate(self):
        _, result = simple_result()
        levels = np.array([0.3, 0.7])
        band = asymptotic_band(result, uniform_sigma(1.0), 10, 0.05, levels)
        centers = result.estimate.quantile(levels)
        assert np.allclose(0.5 * (band.lower + band.upper), centers)
        assert np.all(band.lower <= centers) and np.all(centers <= band.upper)

    def test_nesting_in_alpha(self):
        _, result = simple_result()
        levels = [0.25, 0.5, 0.75]
        wide = asymptotic_band(result, uniform_sigma(1.0), 10, 0.01, levels)
        narrow = asymptotic_band(result, uniform_sigma(1.0), 10, 0.10, levels)
        assert np.all(wide.lower <= narrow.lower) and np.all(narrow.upper <= wide.upper)

    def test_sample_count_domain(self):
        _, result = simple_result()
        with pytest.raises(OutOfDomainError, match="n_j must be an integer >= 1"):
            asymptotic_band(result, uniform_sigma(1.0), 0, 0.05, [0.5])

    def test_empty_neighbour_set_has_no_band(self):
        _, result = simple_result()
        empty = replace(result, neighbors=replace(result.neighbors, rows=np.empty(0, dtype=np.int64)))
        with pytest.raises(NoNeighborsError):
            asymptotic_band(empty, uniform_sigma(1.0), 2, 0.05, [0.5])


BAD_GRIDS = {
    "empty": ([], "non-empty 1-D"),
    "2-D": ([[0.2, 0.5]], "non-empty 1-D"),
    "zero": ([0.0, 0.5], "levels must lie in"),
    "one": ([0.5, 1.0], "levels must lie in"),
    "nan": ([0.5, np.nan], "levels must lie in"),
    "decreasing": ([0.5, 0.3], "strictly increasing"),
    "repeated": ([0.5, 0.5], "strictly increasing"),
}


@pytest.mark.parametrize("method", ["asymptotic", "bootstrap"])
@pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
def test_bad_level_grid_is_out_of_domain(method, grid):
    levels, message = BAD_GRIDS[grid]
    m, result = simple_result()
    with pytest.raises(OutOfDomainError, match=message):
        if method == "asymptotic":
            asymptotic_band(result, uniform_sigma(1.0), 10, 0.05, levels)
        else:
            bootstrap_band(m, 0, 1, 1.0, 0.05, levels)


class TestBootstrapBand:
    def test_degenerate_neighbors_zero_width(self):
        m = DistributionalMatrix(
            [
                [[9.0], None],
                [[9.0], [5.0, 5.0, 5.0]],
                [[9.0], [5.0, 5.0, 5.0]],
            ]
        )
        band = bootstrap_band(m, 0, 1, eta=1.0, alpha=0.05, levels=[0.3, 0.7], seed=1)
        assert np.allclose(band.lower, 5.0) and np.allclose(band.upper, 5.0)

    def test_single_replicate_zero_width(self):
        m, _ = simple_result()
        band = bootstrap_band(
            m, 0, 1, eta=1.0, alpha=0.05, levels=[0.5],
            reps_samples=1, reps_neighbors=1, seed=3,
        )
        assert band.upper[0] == band.lower[0]

    def test_deterministic_per_seed(self):
        m, _ = simple_result()
        kwargs = dict(alpha=0.05, levels=[0.25, 0.75])
        b1 = bootstrap_band(m, 0, 1, 1.0, seed=7, **kwargs)
        b2 = bootstrap_band(m, 0, 1, 1.0, seed=7, **kwargs)
        b3 = bootstrap_band(m, 0, 1, 1.0, seed=8, **kwargs)
        assert np.array_equal(b1.lower, b2.lower) and np.array_equal(b1.upper, b2.upper)
        assert not (
            np.array_equal(b1.lower, b3.lower) and np.array_equal(b1.upper, b3.upper)
        )

    def test_nesting_in_alpha(self):
        m, _ = simple_result()
        levels = [0.25, 0.5, 0.75]
        wide = bootstrap_band(m, 0, 1, 1.0, 0.02, levels, seed=5)
        narrow = bootstrap_band(m, 0, 1, 1.0, 0.40, levels, seed=5, simultaneous=False)
        assert np.all(wide.lower <= narrow.lower) and np.all(narrow.upper <= wide.upper)

    def test_method_tag(self):
        m, _ = simple_result()
        band = bootstrap_band(m, 0, 1, 1.0, 0.05, [0.5], seed=2)
        assert band.method == "bootstrap" and band.simultaneous

    @pytest.mark.parametrize(
        "kwargs", [{"alpha": 1.5}, {"alpha": 0.0}, {"reps_samples": 0}, {"reps_neighbors": -1}]
    )
    def test_bad_arguments_fail_before_the_neighbour_search(self, kwargs, monkeypatch):
        m, _ = simple_result()
        monkeypatch.setattr(estimator, "find_neighbors", lambda *a, **k: pytest.fail("searched"))
        with pytest.raises(OutOfDomainError):
            bootstrap_band(m, 0, 1, **{"eta": 1.0, "alpha": 0.05, "levels": [0.5], **kwargs})

    @pytest.mark.parametrize("kwargs, name", [
        ({"reps_samples": 2.5}, "reps_samples"),
        ({"reps_neighbors": True}, "reps_neighbors"),
        ({"reps_samples": "3"}, "reps_samples"),
        ({"reps_samples": 2**16, "reps_neighbors": 2**16}, r"reps_samples \* reps_neighbors"),
    ], ids=["float", "bool", "str", "product-2**32"])
    def test_replicate_counts_are_typed(self, kwargs, name, monkeypatch):
        """Counts that are not integers, or whose product reaches 2**32, are
        refused before the search (a 2**32 x levels curve block needs 32 GiB
        per level)."""
        m, _ = simple_result()
        monkeypatch.setattr(estimator, "find_neighbors", lambda *a, **k: pytest.fail("searched"))
        with pytest.raises(OutOfDomainError, match=name):
            bootstrap_band(m, 0, 1, 1.0, 0.05, [0.5], **kwargs)

    def test_largest_replicate_product_passes_the_check(self):
        inference._check_reps(2**16, 2**16 - 1)
        inference._check_reps(np.int64(3), np.uint8(2))

    def test_no_neighbours_is_typed_error(self):
        m = DistributionalMatrix([[[0.0], None], [[9.0], [1.0]]])
        with pytest.raises(NoNeighborsError) as err:
            bootstrap_band(m, 0, 1, 0.5, 0.05, [0.5])
        assert (err.value.row, err.value.col, err.value.eta) == (0, 1, 0.5)


@pytest.mark.parametrize("count", [0, -1, 2.5, True, "9", None])
def test_default_levels_refuses_counts_below_one_and_non_integers(count):
    with pytest.raises(OutOfDomainError, match="count must be an integer >= 1"):
        default_levels(count)


def test_default_levels_accepts_numpy_integers():
    assert np.array_equal(default_levels(np.int64(3)), [0.25, 0.5, 0.75])


def reference_curves(m, i, j, levels, n_reps, seed):
    """Sorted replicate curves of the per-neighbour replicate loop: each
    chosen neighbour is resampled, sorted and read at the levels on its own,
    and the quantile rows are summed one at a time into a zero vector."""
    samples = [m.entry(u, j).samples for u in impute(m, i, j, math.inf).neighbors.rows]
    k = len(samples)
    curves = np.empty((n_reps, levels.size))
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(n_reps)):
        rng = np.random.default_rng(child)
        acc = np.zeros(levels.size)
        for u in rng.integers(0, k, size=k):
            base = samples[u]
            resampled = np.sort(base[rng.integers(0, base.shape[0], size=base.shape[0])])
            acc += from_samples(resampled).quantile(levels)
        curves[r] = acc / k
    curves.sort(axis=0)
    return curves


def reference_bootstrap(m, i, j, alpha, levels, reps_samples, reps_neighbors, seed):
    """Band from the per-neighbour replicate loop."""
    levels = np.asarray(levels, dtype=float)
    n_reps = reps_samples * reps_neighbors
    curves = reference_curves(m, i, j, levels, n_reps, seed)
    tail = alpha / levels.size / 2.0
    lo = min(max(math.ceil(tail * n_reps), 1), n_reps)
    hi = min(max(math.ceil((1.0 - tail) * n_reps), 1), n_reps)
    return curves[lo - 1], curves[hi - 1]


def neighbour_panel(neighbour_samples):
    """Target row 0 misses column 1; every other row sits at distance 0 from
    it, so all of them are neighbours, in row order."""
    return DistributionalMatrix(
        [[[0.0], None]] + [[[0.0], list(v)] for v in neighbour_samples]
    )


sample_values = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False), st.sampled_from([-0.0, 0.0, 1.0])
)


@st.composite
def neighbour_sets(draw):
    """Equal or ragged sample counts of 1-24, so that the padded block holds
    many pad slots, at times with a single-sample neighbour and a neighbour
    whose samples are all -0.0."""
    k = draw(st.integers(1, 10))
    if draw(st.booleans()):
        counts = [draw(st.integers(1, 24))] * k
    else:
        counts = draw(st.lists(st.integers(1, 24), min_size=k, max_size=k))
    sets = [draw(st.lists(sample_values, min_size=n, max_size=n)) for n in counts]
    if draw(st.booleans()):
        sets[draw(st.integers(0, k - 1))] = [-0.0] * counts[0]
    return sets


class TestBootstrapMatchesPerNeighbourLoop:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        sets=neighbour_sets(),
        seed=st.integers(0, 2**32 - 1),
        reps=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        n_levels=st.integers(1, 12),
        alpha=st.sampled_from([0.05, 0.5]),
    )
    def test_bands_are_byte_equal(self, sets, seed, reps, n_levels, alpha):
        m = neighbour_panel(sets)
        levels = default_levels(n_levels)
        band = bootstrap_band(m, 0, 1, math.inf, alpha, levels, reps_samples=reps[0],
                              reps_neighbors=reps[1], seed=seed)
        lower, upper = reference_bootstrap(m, 0, 1, alpha, levels, *reps, seed)
        assert band.lower.tobytes() == lower.tobytes()
        assert band.upper.tobytes() == upper.tobytes()

    def test_single_replicate_of_one_negative_zero_neighbour(self):
        m = neighbour_panel([[-0.0, -0.0]])
        band = bootstrap_band(m, 0, 1, math.inf, 0.05, [0.5], reps_samples=1,
                              reps_neighbors=1, seed=0)
        assert band.lower.tobytes() == np.array([0.0]).tobytes()  # 0.0 + -0.0


class TestAveragingOrder:
    """A replicate's k quantile rows are summed one at a time, in the order
    chosen, from 0.0, as the reference loop does. numpy's own reduction over
    a contiguous axis of 8 or more values sums pairwise, which moves the last
    bit of one-level bands."""

    @staticmethod
    def panel(k, ragged):
        rng = np.random.default_rng([k, ragged])
        counts = rng.integers(5, 30, size=k) if ragged else np.full(k, 17)
        return neighbour_panel(rng.normal(size=n) * 10.0 ** rng.integers(-3, 4) for n in counts)

    def check(self, m):
        for seed in range(10):
            band = bootstrap_band(m, 0, 1, math.inf, 0.5, [0.5], reps_samples=2,
                                  reps_neighbors=5, seed=seed)
            lower, upper = reference_bootstrap(m, 0, 1, 0.5, [0.5], 2, 5, seed)
            assert band.lower.tobytes() == lower.tobytes()
            assert band.upper.tobytes() == upper.tobytes()

    @pytest.mark.parametrize("ragged", [False, True], ids=["equal", "ragged"])
    @pytest.mark.parametrize("k", [12, 40])
    def test_one_level_bands_are_byte_equal(self, k, ragged):
        self.check(self.panel(k, ragged))

    @pytest.mark.parametrize("per_block", [1, 2, 3])
    def test_replicate_blocks_change_no_bit(self, monkeypatch, per_block):
        monkeypatch.setattr(empirical, "_GATHER_ELEMENTS", per_block * 12)
        assert empirical._chunk_rows(12) == per_block
        self.check(self.panel(12, True))


def test_envelope_rank_snaps_like_the_step_quantile():
    """Pointwise alpha 0.14 over 100 replicates puts the lower envelope on
    the 7th-smallest curve: 0.07 * 100 rounds to 7.000000000000001, which
    must not lift the rank to 8."""
    rng = np.random.default_rng(5)
    m = neighbour_panel(rng.normal(size=(6, 8)).round(3))
    levels = default_levels(5)
    band = bootstrap_band(m, 0, 1, math.inf, 0.14, levels, seed=4, simultaneous=False)
    curves = reference_curves(m, 0, 1, levels, 100, 4)
    assert not np.array_equal(curves[6], curves[7])
    assert band.lower.tobytes() == curves[6].tobytes()
    assert band.upper.tobytes() == curves[92].tobytes()


class TestOneDrawCallPerReplicate:
    """``bootstrap_band`` draws a replicate's resample indices with one
    ``integers`` call; the band keeps its stream only while that call gives
    the values and the generator state of one call per chosen neighbour."""

    PROPERTY = (
        "one Generator.integers call no longer equals one call per neighbour "
        "(PCG64 keeping its spare 32-bit half between bounded draws): "
        "bootstrap bands would change"
    )

    @staticmethod
    def pair(seed, k):
        """Two generators on one seed, each past the draw of k neighbour
        indices, as in a replicate."""
        gens = [np.random.default_rng(seed), np.random.default_rng(seed)]
        for g in gens:
            g.integers(0, k, size=k)
        return gens

    def check(self, merged, one_at_a_time, gens):
        assert np.array_equal(merged, np.concatenate(one_at_a_time)), self.PROPERTY
        assert gens[0].bit_generator.state == gens[1].bit_generator.state, self.PROPERTY

    @pytest.mark.parametrize("n", [1, 2, 7, 199, 200])
    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_scalar_bound(self, n, k):
        for seed in range(40):
            gens = self.pair(seed, k)
            merged = gens[0].integers(0, n, size=k * n)
            self.check(merged, [gens[1].integers(0, n, size=n) for _ in range(k)], gens)

    def test_array_bound_for_mixed_counts(self):
        for seed in range(150):
            counts = np.random.default_rng(10_000 + seed).integers(1, 60, size=1 + seed % 12)
            gens = self.pair(seed, counts.size)
            merged = gens[0].integers(0, np.repeat(counts, counts))
            self.check(merged, [gens[1].integers(0, n, size=n) for n in counts.tolist()], gens)


class TestSpawnStates:
    """``bootstrap_band`` sets each replicate's PCG64 state from
    ``inference._spawn_states``, numpy's seeding computed in one pass; the
    band keeps its stream only while these are the states of ``default_rng``
    on ``SeedSequence(seed).spawn(n)``'s children."""

    @staticmethod
    def spawned(seed, n):
        return [np.random.default_rng(c).bit_generator.state
                for c in np.random.SeedSequence(seed).spawn(n)]

    @pytest.mark.parametrize("n", [1, 2, 100, 257])
    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 5, 2**200 + 3, np.int64(7)],
        ids=["0", "1", "2**32-1", "2**32", "2**64+1", "2**128+5", "2**200+3", "int64-7"],
    )
    def test_states_of_the_spawned_generators(self, seed, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert inference._spawn_states(seed, n) == self.spawned(seed, n)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**256 - 1), n=st.integers(1, 20))
    def test_any_seed(self, seed, n):
        assert inference._spawn_states(seed, n) == self.spawned(seed, n)


def test_bootstrap_builds_no_estimate(monkeypatch):
    """The band reads only the neighbour set: neither ``impute`` nor a
    barycenter runs, and the band is the per-neighbour loop's."""
    rng = np.random.default_rng(12)
    for sets in ([rng.normal(size=9) for _ in range(5)], [rng.normal(size=n) for n in (3, 8, 5)]):
        m = neighbour_panel(sets)
        levels = default_levels(9)
        lower, upper = reference_bootstrap(m, 0, 1, 0.1, levels, 3, 4, 6)
        with monkeypatch.context() as patched:
            for owner, name in [(estimator, "barycenter"), (estimator, "step_barycenter"),
                                (inference, "impute")]:
                patched.setattr(owner, name, lambda *a, **k: pytest.fail("built an estimate"))
            band = bootstrap_band(m, 0, 1, math.inf, 0.1, levels, reps_samples=3,
                                  reps_neighbors=4, seed=6)
        assert band.lower.tobytes() == lower.tobytes()
        assert band.upper.tobytes() == upper.tobytes()


def test_pinned_stream():
    """A fixed seed keeps giving the same band on a ragged neighbour set."""
    rng = np.random.default_rng(2026)
    m = neighbour_panel(rng.normal(size=n).round(3) for n in (3, 7, 1, 5, 7))
    band = bootstrap_band(m, 0, 1, math.inf, 0.1, default_levels(9), reps_samples=4,
                          reps_neighbors=5, seed=11)
    digest = hashlib.sha256(band.lower.tobytes() + band.upper.tobytes()).hexdigest()
    assert digest == (
        "0ac9f82e528c1aaed995da621db82f4b7a1aafd2ce025ff911546709151807a3"
    )


def test_bootstrap_memory_follows_the_resampled_counts(monkeypatch):
    """A replicate draws, sorts and reads the samples of the neighbours it
    chose, not k times the largest count: with 11 neighbours of 2 samples
    and one of 200,000, a k x n_max padded block alone would hold 19.2 MB.
    The neighbour search runs before tracing, as its row tables have a
    budget of their own."""
    rng = np.random.default_rng(8)
    sets = [rng.normal(size=2) for _ in range(11)] + [rng.normal(size=200_000)]
    m = neighbour_panel(sets)
    neighbors = estimator.find_neighbors(m, 0, 1, math.inf)
    assert neighbors.rows.tolist() == list(range(1, 13))
    monkeypatch.setattr(estimator, "find_neighbors", lambda *a, **k: neighbors)
    sizes = np.array([s.size for s in sets])
    k, levels, n_reps, seed = sizes.size, default_levels(9), 4, 0
    # the largest replicate's resample: its first draw chooses its k neighbours
    resampled = max(int(sizes[np.random.default_rng(child).integers(0, k, size=k)].sum())
                    for child in np.random.SeedSequence(seed).spawn(n_reps))
    tracemalloc.start()
    try:
        bootstrap_band(m, 0, 1, math.inf, 0.05, levels, reps_samples=2, reps_neighbors=2,
                       seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * resampled + 8 * n_reps * k * levels.size


class TestKdeMode:
    def test_kde_sigma_positive_and_band_builds(self):
        rng = np.random.default_rng(17)
        m = DistributionalMatrix(
            [
                [rng.normal(size=30), None],
                [rng.normal(size=30), rng.normal(size=50)],
                [rng.normal(size=30), rng.normal(size=50)],
            ]
        )
        result = impute(m, 0, 1, eta=10.0)
        sigma = SigmaFunction.from_result(m, result)
        assert sigma.mode == "kde"
        val = sigma_sq(sigma, 0.5)
        assert np.isfinite(val) and val > 0
        band = asymptotic_band(result, sigma, 50, 0.05, default_levels(9))
        assert band.method == "asymptotic_kde"
        assert np.all(band.upper >= band.lower)

    @pytest.mark.parametrize("flat", [[5.0, 5.0, 5.0], [5.0]], ids=["equal", "single"])
    def test_neighbor_without_spread_is_degenerate(self, flat):
        m = DistributionalMatrix(
            [
                [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
                [flat, [1.0, 2.0, 4.0]],
                [None, [1.0, 2.0, 3.0]],
            ]
        )
        result = impute(m, 2, 0, eta=100.0)
        assert result.neighbors.rows.tolist() == [0, 1]
        with pytest.raises(DegenerateDensityError, match="KDE"):
            SigmaFunction.from_result(m, result)

    def test_cells_give_the_band_of_their_samples(self):
        rng = np.random.default_rng(23)
        m = DistributionalMatrix([
            [rng.normal(size=20), None],
            [rng.normal(size=20), rng.normal(size=40)],
            [rng.normal(size=20), rng.normal(size=25)],
        ])
        result = impute(m, 0, 1, eta=10.0)
        cells = [m.entry(u, 1) for u in result.neighbors.rows]
        levels = default_levels(9)
        from_cells = asymptotic_band(result, SigmaFunction.from_samples(cells), 25, 0.05, levels)
        raw = [rng.permutation(c.samples) for c in cells]
        from_raw = asymptotic_band(result, SigmaFunction.from_samples(raw), 25, 0.05, levels)
        assert from_cells.lower.tobytes() == from_raw.lower.tobytes()
        assert from_cells.upper.tobytes() == from_raw.upper.tobytes()

    @pytest.mark.parametrize("bad, error", [
        ([True, False, True], OutOfDomainError),
        (["1.0", "2.0", "3.0"], OutOfDomainError),
        ([1.0, np.nan, 3.0], NonFiniteSampleError),
        ([1.0, np.inf, 3.0], NonFiniteSampleError),
        ([], EmptyInputError),
    ], ids=["bool", "str", "nan", "inf", "empty"])
    def test_bad_samples_are_typed_errors_without_warnings(self, bad, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                SigmaFunction.from_samples([[1.0, 2.0, 4.0], bad])

    @pytest.mark.parametrize("bad", [
        [1e200, -1e200, 3.0],
        [1e300, -1e300],
        [1e-300, 2e-300],
        [-8e153, 8e153],
    ], ids=["variance-overflows", "pair-overflows", "variance-underflows", "normaliser-overflows"])
    def test_unfittable_spread_is_degenerate_without_warnings(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDensityError,
                               match=f"cannot fit a KDE to a neighbor's {len(bad)} samples"):
                SigmaFunction.from_samples([[1.0, 2.0, 4.0], bad])

    def test_variance_analog_overflow_is_degenerate_without_warnings(self):
        sigma = SigmaFunction.from_samples([[-4e153, 4e153]] * 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDensityError, match="variance analog overflows"):
                sigma_sq(sigma, default_levels(9))


def scipy_sigma(neighbours):
    """The KDE-mode SigmaFunction built from ``scipy.stats.gaussian_kde``
    objects, the path the closed form replaced. Each KDE is fitted to the samples
    less their minimum and evaluated at the quantiles less it, the same
    density: scipy divides the raw values by the bandwidth before it takes
    differences, which at an offset of 1e6 and a spread of 1e-3 alone moves
    the density by about 1e-7 relative."""
    from scipy import stats

    fns = []
    for emp in neighbours:
        shift = emp.samples[0]
        kde = stats.gaussian_kde(emp.samples - shift, bw_method="silverman")
        fns.append(lambda t, e=emp, k=kde, c=shift: k(np.atleast_1d(e.quantile(t)) - c))
    return SigmaFunction(mode="kde", density_at_quantile_fns=tuple(fns))


@st.composite
def kde_neighbours(draw):
    """One to three neighbours of 2-500 samples at an offset up to 1e6 and a
    scale in [1e-3, 1e3], each with its samples tied onto 2 to n distinct
    values."""
    neighbours = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 500))
        distinct = draw(st.integers(2, n))
        offset = draw(st.floats(-1e6, 1e6))
        scale = draw(st.floats(1e-3, 1e3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = offset + scale * rng.normal(size=distinct)
        x = np.concatenate([values, values[rng.integers(0, distinct, n - distinct)]])
        assume(np.unique(x).size >= 2)  # the offset can swallow a spread of 1e-3
        neighbours.append(from_samples(x))
    return neighbours


class TestClosedFormKde:
    LEVELS = default_levels(99)
    RTOL = 1e-12

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(neighbours=kde_neighbours())
    def test_matches_scipy_gaussian_kde(self, neighbours):
        ours = SigmaFunction.from_samples(neighbours)
        ref = scipy_sigma(neighbours)
        for fn, ref_fn in zip(ours.density_at_quantile_fns, ref.density_at_quantile_fns):
            want = ref_fn(self.LEVELS)
            assert np.all(np.abs(fn(self.LEVELS) - want) <= self.RTOL * want)
        want = sigma_sq(ref, self.LEVELS)
        assert np.all(np.abs(sigma_sq(ours, self.LEVELS) - want) <= self.RTOL * want)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_level_blocks_change_no_bit(self, monkeypatch, rows):
        rng = np.random.default_rng(41)
        neighbours = [rng.normal(size=n) for n in (2, 37, 200, 501)]
        expected = sigma_sq(SigmaFunction.from_samples(neighbours), self.LEVELS)
        monkeypatch.setattr(empirical, "_chunk_rows", lambda width: rows)
        chunked = sigma_sq(SigmaFunction.from_samples(neighbours), self.LEVELS)
        assert chunked.tobytes() == expected.tobytes()


class TestOracleCoverageSmoke:
    def test_pointwise_coverage_near_nominal(self):
        # small version of the oracle-mode coverage experiment
        trials, hits = 120, 0
        root = np.random.SeedSequence(2024)
        for child in root.spawn(trials):
            rng = np.random.default_rng(child)
            spec = DgpSpec(
                kind="heteroscedastic",
                base_family="uniform",
                location_range=(-0.001, 0.001),
                scale_range=(1.0, 5.0),
                n_per_entry=2000,
                seed=int(rng.integers(2**63)),
            )
            full, truth = generate(spec, 12, 4)
            i, j = 0, 0
            masked = full.mask_cell(i, j)
            result = impute(masked, i, j, eta=np.inf, max_neighbors=4)
            sigma = SigmaFunction.from_true_distributions(
                truth, result.neighbors.rows, j
            )
            band = asymptotic_band(
                result, sigma, n_j=2000, alpha=0.05, levels=[0.5], simultaneous=False
            )
            true_median = truth.quantile(i, j, 0.5)
            hits += int(band.lower[0] <= true_median <= band.upper[0])
        coverage = hits / trials
        assert 0.85 <= coverage <= 1.0
