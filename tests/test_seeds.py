"""Every seeded entry point of the library rejects a bad seed with one typed error."""

import math

import numpy as np
import pytest

from distnn import (
    DgpSpec,
    DistributionalMatrix,
    MaskSpec,
    OutOfDomainError,
    TuneConfig,
    apply_mcar,
    bootstrap_band,
    generate,
    tune_eta,
)
from distnn.experiments import (
    ExperimentSpec,
    run_scaling,
    verify_barycenter_rate,
    verify_uniform_barycenter_error,
)


def small_matrix():
    return DistributionalMatrix([
        [[0.0, 1.0], [0.0, 2.0], None],
        [[0.0, 1.5], [0.5, 2.0], [1.0, 3.0]],
        [[0.5, 1.0], [0.0, 2.5], [1.0, 4.0]],
    ])


ENTRY_POINTS = {
    "run_scaling": lambda seed: run_scaling(ExperimentSpec(dgp=DgpSpec(), seed=seed)),
    "verify_uniform_barycenter_error":
        lambda seed: verify_uniform_barycenter_error(trials=100, seed=seed),
    "verify_barycenter_rate": lambda seed: verify_barycenter_rate(seed=seed),
    "bootstrap_band":
        lambda seed: bootstrap_band(small_matrix(), 0, 2, math.inf, 0.05, [0.5], seed=seed),
    "generate": lambda seed: generate(DgpSpec(seed=seed), 3, 2),
    "apply_mcar": lambda seed: apply_mcar(generate(DgpSpec(), 3, 2)[0], MaskSpec(0.5, seed=seed)),
    "tune_eta": lambda seed: tune_eta(
        small_matrix(), 0, 2, TuneConfig(search="random_log_uniform", seed=seed)),
}


@pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_seed_is_out_of_domain(entry, seed):
    with pytest.raises(OutOfDomainError, match="seed must be a non-negative integer"):
        ENTRY_POINTS[entry](seed)


def test_numpy_integer_seed_is_a_seed():
    a, _ = generate(DgpSpec(n_per_entry=5, seed=np.int64(3)), 2, 2)
    b, _ = generate(DgpSpec(n_per_entry=5, seed=3), 2, 2)
    assert np.array_equal(a.entry(1, 1).samples, b.entry(1, 1).samples)
