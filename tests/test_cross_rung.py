"""Cross-rung invariants of the divergence ladder on seeded random pairs.

For every continuous family without a 1-D sufficient statistic, mixtures of
k = 2 atoms are drawn from the stated ranges, narrow components against wide
ones included. At N = 1 (the 1-D engine) and N = 2 (the tensor rung) every
pair must satisfy H^2 <= TV <= H sqrt(2 - H^2) (Le Cam 1986; Tsybakov 2009,
section 2.4), and neither divergence may fall from N = 1 to N = 2, since the
first coordinate of a pair is a function of the pair. The fixed rows are
cases that a uniform grid over the union of the tails used to miss, and
Beta pairs just above alpha * xi = 1, where the 1-D engine's panels cascade
toward 0."""

import math
import time

import numpy as np
import pytest

from mixlab.identifiability import first_order_gram
from mixlab.kernels import (
    BetaPushforwardKernel,
    GammaKernel,
    GaussianLocationKernel,
    GaussianLocationMixtureKernel,
    LocScaleExponentialKernel,
    UniformKernel,
)
from mixlab.measures import MixingMeasure
from mixlab.products import TENSOR_TOL, estimate_divergence

# Both rungs agree with the truth to about TENSOR_TOL; the checks compare
# squared distances, which that error moves by at most a few times as much.
SLACK = 10 * TENSOR_TOL
PAIRS = 4
XI = 0.3


def loguniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def gamma_atoms(rng):
    """Shapes U(1, 20), rates log-uniform on (0.37, 7.4)."""
    return np.column_stack([rng.uniform(1, 20, 2), loguniform(rng, 0.37, 7.4, 2)])


def locscale_atoms(rng):
    """Left ends U(-1, 1), scales log-uniform on (1e-3, 3)."""
    return np.column_stack([rng.uniform(-1, 1, 2), loguniform(rng, 1e-3, 3, 2)])


def uniform_atoms(rng):
    """Right ends log-uniform on (1e-3, 3)."""
    return loguniform(rng, 1e-3, 3, (2, 1))


def gaussian_mixture_atoms(rng):
    """First-component weights U(0.1, 0.9), sorted means U(-3, 3)."""
    means = np.sort(rng.uniform(-3, 3, (2, 2)), axis=1)
    return np.column_stack([rng.uniform(0.1, 0.9, 2), means])


def beta_atoms(rng):
    """First-component weights U(0.1, 0.9) and sorted concentrations alpha
    with alpha * XI log-uniform on (1, 100). Just above alpha * XI = 1 the
    density is nearly a step at 0, where the 1-D engine's panels cascade."""
    alphas = np.sort(loguniform(rng, 1 / XI, 100 / XI, (2, 2)), axis=1)
    return np.column_stack([rng.uniform(0.1, 0.9, 2), alphas])


FAMILIES = {
    "gamma": (lambda rng: GammaKernel(), gamma_atoms),
    "locscale_exponential": (lambda rng: LocScaleExponentialKernel(), locscale_atoms),
    "uniform": (lambda rng: UniformKernel(), uniform_atoms),
    # Component scale log-uniform on (0.01, 1).
    "gaussian_location_mixture": (
        lambda rng: GaussianLocationMixtureKernel(2, loguniform(rng, 0.01, 1, None)),
        gaussian_mixture_atoms,
    ),
    "beta_pushforward": (lambda rng: BetaPushforwardKernel(XI), beta_atoms),
}


def draw_pair(rng, family):
    make_kernel, make_atoms = FAMILIES[family]
    kernel = make_kernel(rng)
    G, G2 = (
        MixingMeasure(make_atoms(rng), [w, 1 - w]) for w in rng.uniform(0.2, 0.8, 2)
    )
    return kernel, G, G2


def rung_values(kernel, G, G2, N):
    """(TV, squared Hellinger) at N, each cell timed against its bound."""
    start = time.perf_counter()
    tv = estimate_divergence(G, G2, kernel, N, "tv").value
    middle = time.perf_counter()
    h = estimate_divergence(G, G2, kernel, N, "hellinger").value
    end = time.perf_counter()
    if N == 2:
        assert middle - start < 10.0 and end - middle < 1.0
    return tv, h * h


def assert_between_bounds(tv, h2):
    assert h2 <= tv + SLACK
    assert tv * tv <= h2 * (2 - h2) + SLACK


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_random_pairs_keep_the_invariants(family):
    rng = np.random.default_rng([21, sorted(FAMILIES).index(family)])
    for _ in range(PAIRS):
        kernel, G, G2 = draw_pair(rng, family)
        tv1, h2_1 = rung_values(kernel, G, G2, 1)
        tv2, h2_2 = rung_values(kernel, G, G2, 2)
        assert_between_bounds(tv1, h2_1)
        assert_between_bounds(tv2, h2_2)
        assert tv2 >= tv1 - SLACK
        assert h2_2 >= h2_1 - SLACK


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e-2])
def test_narrow_shifted_exponential_keeps_its_mass_at_two(scale):
    # The shared atom (5, 1) carries half the mass, so TV is at most 0.5.
    kernel = LocScaleExponentialKernel()
    G = MixingMeasure(np.array([[0.0, scale], [5.0, 1.0]]), [0.5, 0.5])
    G2 = MixingMeasure(np.array([[0.0, 2.0], [5.0, 1.0]]), [0.5, 0.5])
    tv1, h2_1 = rung_values(kernel, G, G2, 1)
    tv2, h2_2 = rung_values(kernel, G, G2, 2)
    assert tv1 - SLACK <= tv2 <= 0.5 + SLACK
    assert h2_1 - SLACK <= h2_2
    assert_between_bounds(tv2, h2_2)


@pytest.mark.parametrize("alpha_xi", [1.001, 1.05])
def test_beta_just_above_one_keeps_the_invariants_in_time(alpha_xi):
    # The density is nearly a step at 0, where the 1-D engine's panels
    # cascade by hundreds; the tensor rung merges the cascade first.
    kernel = BetaPushforwardKernel(XI)
    a = alpha_xi / XI
    G = MixingMeasure(np.array([[0.5, a, 3 * a], [0.4, 1.1 * a, 5 * a]]), [0.5, 0.5])
    G2 = MixingMeasure(
        np.array([[0.3, 1.3 * a, 2 * a], [0.6, 1.5 * a, 4 * a]]), [0.3, 0.7]
    )
    tv1, h2_1 = rung_values(kernel, G, G2, 1)
    tv2, h2_2 = rung_values(kernel, G, G2, 2)
    assert_between_bounds(tv2, h2_2)
    assert tv2 >= tv1 - SLACK and h2_2 >= h2_1 - SLACK


def test_gram_does_not_depend_on_the_scale():
    # Atoms {0, 3 sigma, 100} are the same configuration at every sigma
    # while the far atom stays far, so the Gram eigenvalue cannot move.
    values = [
        first_order_gram(GaussianLocationKernel(sigma), [[0.0], [3 * sigma], [100.0]])
        for sigma in (1.0, 0.1, 0.01, 0.001)
    ]
    assert max(values) - min(values) < 1e-10
    assert min(values) > 0.5
