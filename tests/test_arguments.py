"""The scalar-argument policy: every public API scalar goes through
``errors.check_real`` or ``errors.check_integer``. Bools, non-finite values,
strings and (for integer arguments) floats are refused with an
``InvalidParameter`` that names the argument; NumPy scalars are accepted."""

import math

import numpy as np
import pytest

from mixlab import errors
from mixlab.errors import InvalidParameter
from mixlab.identifiability import bernoulli_first_order_system, gen_vandermonde_det
from mixlab.kernels import (
    BernoulliKernel,
    BetaPushforwardKernel,
    GammaKernel,
    GaussianLocationKernel,
    GaussianLocationMixtureKernel,
    divergence_numeric,
)
from mixlab.measures import MixingMeasure
from mixlab.posterior import (
    Chain,
    MCMCConfig,
    PriorSpec,
    contraction_experiment,
    mcmc_run,
    posterior_error_summary,
    prior_sample,
)
from mixlab.probes import (
    inverse_ratio_probe,
    lecam_two_point_bound,
    sqrtN_sharpness_probe,
)
from mixlab.products import (
    ExchangeableDataset,
    ProductMixtureModel,
    d_mh,
    estimate_divergence,
    hellinger_upper_bound,
    sample_dataset,
)

BERN = BernoulliKernel()
GAUSS = GaussianLocationKernel(1.0)
G = MixingMeasure([[0.2], [0.7]], [0.4, 0.6])
H = MixingMeasure([[0.3], [0.6]], [0.5, 0.5])
PRIOR = PriorSpec(BERN, [[0.01, 0.99]])
DATA = ExchangeableDataset([np.array([1.0, 0.0, 1.0])] * 4)
CONFIG = MCMCConfig(steps=100)
CHAIN = Chain(
    atoms=[G.atoms, H.atoms], weights=[G.weights, H.weights],
    acceptance_rate=0.5, scale_trace=(), seed=None,
)
DIRECTION = [1.0, -0.5, 0.3, -0.3]
GAMMA = GammaKernel()
G_GAMMA = MixingMeasure([[2.0, 1.0], [4.0, 1.5]], [0.4, 0.6])
H_GAMMA = MixingMeasure([[2.5, 1.0], [3.5, 1.5]], [0.5, 0.5])


def rng():
    return np.random.default_rng(0)


def probe(**kwargs):
    return inverse_ratio_probe(GAUSS, G, DIRECTION, 1, **kwargs)


def sharpness(**kwargs):
    args = dict(kernel=GAUSS, G0=G, psi_exponent=1.0)
    return sqrtN_sharpness_probe(**dict(args, **kwargs))


def gamma_divergence(**kwargs):
    """The Monte Carlo rung: gamma has no sufficient statistic at N = 3."""
    return estimate_divergence(G_GAMMA, H_GAMMA, GAMMA, 3, "tv", **kwargs)


def contraction(**kwargs):
    args = dict(
        kernel=BERN, G0=G, m_grid=(20, 40), length_law=("constant", 3),
        replicates=2, config=CONFIG, rng=0,
    )
    return contraction_experiment(**dict(args, **kwargs))


# (id, call, the argument name its message must carry)
BAD_CALLS = [
    ("ProductMixtureModel-N-bool", lambda: ProductMixtureModel(G, BERN, True), "N"),
    ("upper_bound-N-bool", lambda: hellinger_upper_bound(G, H, BERN, True), "N"),
    ("estimate_divergence-N-bool",
     lambda: estimate_divergence(G, H, BERN, True, "tv"), "N"),
    ("sample_dataset-lengths-float",
     lambda: sample_dataset(G, BERN, [3, 2.5], rng()), "lengths"),
    ("d_mh-lengths-float", lambda: d_mh(G, H, BERN, [2.7]), "lengths"),
    ("prior_sample-k0-bool", lambda: prior_sample(PRIOR, True, rng()), "k0"),
    ("mcmc_run-k0-bool", lambda: mcmc_run(DATA, BERN, PRIOR, True, CONFIG, 0), "k0"),
    ("mcmc_run-rng-bool", lambda: mcmc_run(DATA, BERN, PRIOR, 2, CONFIG, True), "rng"),
    ("summary-N_bar-inf",
     lambda: posterior_error_summary(CHAIN, G, math.inf), "N_bar"),
    ("summary-N_bar-str", lambda: posterior_error_summary(CHAIN, G, "3"), "N_bar"),
    ("summary-N_bar-bool", lambda: posterior_error_summary(CHAIN, G, True), "N_bar"),
    ("contraction-length_law-float",
     lambda: contraction(length_law=("constant", 2.5)), "length_law"),
    ("contraction-rng-bool", lambda: contraction(rng=True), "rng"),
    ("probe-ell_grid-str", lambda: probe(ell_grid=["10", "100"]), "ell_grid"),
    ("probe-seed-str", lambda: probe(seed="x"), "seed"),
    ("probe-seed-bool", lambda: probe(seed=True), "seed"),
    ("probe-budget-str", lambda: probe(budget="x"), "budget"),
    ("sharpness-eps_grid-str", lambda: sharpness(eps_grid=["0.1"]), "eps_grid"),
    ("sharpness-psi_exponent-str",
     lambda: sharpness(psi_exponent="2"), "psi_exponent"),
    ("sharpness-N_grid-bool", lambda: sharpness(N_grid=[True, 4]), "N_grid"),
    ("lecam-m-str", lambda: lecam_two_point_bound("4", 4, 1.0, 1.0, 0.5), "m"),
    ("lecam-m-bool", lambda: lecam_two_point_bound(True, 4, 1.0, 1.0, 0.5), "m"),
    ("vandermonde-n-bool",
     lambda: gen_vandermonde_det([0.5], "bernstein", n=True), "n"),
    ("first_order_system-n-bool", lambda: bernoulli_first_order_system(G, True), "n"),
    ("BernoulliKernel-trials-bool", lambda: BernoulliKernel(True), "trials"),
    ("mixture-k-float", lambda: GaussianLocationMixtureKernel(2.0), "k"),
    ("mixture-sigma-inf",
     lambda: GaussianLocationMixtureKernel(2, sigma=math.inf), "sigma"),
    ("BetaPushforward-xi-bool", lambda: BetaPushforwardKernel(True), "xi"),
    # Arithmetic faults: values whose arithmetic would overflow or underflow.
    ("GaussianLocation-sigma-square-overflows",
     lambda: GaussianLocationKernel(1e155), "sigma"),
    ("GaussianLocation-sigma-square-underflows",
     lambda: GaussianLocationKernel(1e-300), "sigma"),
    ("mixture-sigma-square-overflows",
     lambda: GaussianLocationMixtureKernel(2, sigma=1e300), "sigma"),
    ("estimate_divergence-N-beyond-float",
     lambda: estimate_divergence(G, H, GAUSS, 10**400, "tv"), "N"),
    ("sharpness-psi_exponent-overflows",
     lambda: sharpness(psi_exponent=1e300), "psi_exponent"),
    ("lecam-beta0-overflows",
     lambda: lecam_two_point_bound(1, 1, 0.1, 1e-300, 0.5), "beta0"),
    ("lecam-m-N-underflow",
     lambda: lecam_two_point_bound(1e-300, 1e-300, 1, 1, 0.5), "m"),
    ("estimate_divergence-workers-str", lambda: gamma_divergence(workers="x"), "workers"),
    ("estimate_divergence-workers-float",
     lambda: gamma_divergence(workers=2.5), "workers"),
    ("estimate_divergence-workers-bool",
     lambda: gamma_divergence(workers=True), "workers"),
    ("estimate_divergence-workers-zero", lambda: gamma_divergence(workers=0), "workers"),
    ("estimate_divergence-workers-negative",
     lambda: gamma_divergence(workers=-1), "workers"),
    ("d_mh-workers-zero", lambda: d_mh(G, H, BERN, [3], workers=0), "workers"),
    ("contraction-workers-float", lambda: contraction(workers=2.5), "workers"),
    ("contraction-workers-zero", lambda: contraction(workers=0), "workers"),
    ("PriorSpec-box-str", lambda: PriorSpec(BERN, [["a", 0.5]]), "box"),
    ("ExchangeableDataset-sequences-str",
     lambda: ExchangeableDataset(["ab"]), "sequences"),
    ("estimate_divergence-which-none",
     lambda: estimate_divergence(G, H, BERN, 3, None), "which"),
    ("estimate_divergence-which-int",
     lambda: estimate_divergence(G, H, BERN, 3, 3), "which"),
    ("divergence_numeric-which-none",
     lambda: divergence_numeric(GAUSS, [0.1], [0.2], None), "which"),
    ("divergence_numeric-which-int",
     lambda: divergence_numeric(GAUSS, [0.1], [0.2], 3), "which"),
]


@pytest.mark.parametrize(
    "call, name", [row[1:] for row in BAD_CALLS], ids=[row[0] for row in BAD_CALLS]
)
def test_bad_scalar_is_refused_by_name(call, name):
    with pytest.raises(InvalidParameter, match=rf"\b{name}\b"):
        call()


GOOD_CALLS = [
    ("ProductMixtureModel-N-int64",
     lambda: ProductMixtureModel(G, BERN, np.int64(3)).N,
     lambda: ProductMixtureModel(G, BERN, 3).N),
    ("sample_dataset-lengths-int64",
     lambda: sample_dataset(G, BERN, np.array([3, 2]), rng()).sequences,
     lambda: sample_dataset(G, BERN, [3, 2], rng()).sequences),
    ("summary-N_bar-float64",
     lambda: posterior_error_summary(CHAIN, G, np.float64(3.0)),
     lambda: posterior_error_summary(CHAIN, G, 3)),
    ("sharpness-N_grid-float64",
     lambda: sharpness(N_grid=np.array([4.0, 16.0])).params,
     lambda: sharpness(N_grid=[4, 16]).params),
    ("lecam-numpy",
     lambda: lecam_two_point_bound(np.int64(40), np.float32(4.0), 1.0, 1.0, 0.5),
     lambda: lecam_two_point_bound(40, 4, 1.0, 1.0, 0.5)),
    ("BernoulliKernel-trials-int64",
     lambda: BernoulliKernel(np.int64(2)).trials, lambda: BernoulliKernel(2).trials),
    ("GaussianLocationKernel-sigma-float32",
     lambda: GaussianLocationKernel(np.float32(0.5)).sigma,
     lambda: GaussianLocationKernel(0.5).sigma),
]


@pytest.mark.parametrize(
    "numpy_call, python_call",
    [row[1:] for row in GOOD_CALLS],
    ids=[row[0] for row in GOOD_CALLS],
)
def test_numpy_scalars_are_accepted(numpy_call, python_call):
    np.testing.assert_equal(numpy_call(), python_call())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: errors.check_real("x", 1, 0, 1, strict=True),
         "x must be a finite real > 0 and < 1, got 1"),
        (lambda: errors.check_real("x", -1, 0), "x must be a finite real >= 0, got -1"),
        (lambda: errors.check_real("x", 10**400),
         "x must be a finite real, got 1" + "0" * 400),
        (lambda: errors.check_integer("k", 2.0, 2),
         "k must be an integer >= 2, got 2.0"),
        (lambda: errors.check_integer("k", True), "k must be an integer, got True"),
    ],
)
def test_checker_messages(call, message):
    with pytest.raises(InvalidParameter) as err:
        call()
    assert str(err.value) == message


def test_checkers_return_python_scalars():
    assert errors.check_real("x", 1, 0, 1) == 1.0
    assert type(errors.check_integer("k", np.uint8(3))) is int
