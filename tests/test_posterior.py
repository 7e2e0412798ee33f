"""Tests for the posterior sampler and the contraction experiment."""

import hashlib
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import beta as beta_dist
from scipy.stats import kstest

from mixlab import posterior
from mixlab.errors import (
    AllProposalsRejected,
    InvalidParameter,
    MismatchedSupportSize,
)
from mixlab.kernels import (
    BernoulliKernel,
    GammaKernel,
    GaussianLocationKernel,
    GaussianLocationMixtureKernel,
    UniformKernel,
    logsumexp,
)
from mixlab.measures import (
    MixingMeasure,
    atom_and_weight_distances,
    canonical_order,
    canonicalize,
    distance_DN,
    measure_fault,
)
from mixlab.posterior import (
    PROPOSAL_BLOCK,
    SCALE_CEILING,
    SCALE_FLOOR,
    Chain,
    ContractionReport,
    MCMCConfig,
    PriorSpec,
    _block_length,
    _likelihood_evaluator,
    _reflect_into_box,
    contraction_experiment,
    log_posterior_unnorm,
    mcmc_run,
    posterior_error_summary,
    prior_sample,
    resolve_length_law,
)
from mixlab.products import ExchangeableDataset, sample_dataset

BERN = BernoulliKernel()
GAUSS = GaussianLocationKernel(1.0)
UNIT_PRIOR = PriorSpec(BERN, np.array([[0.01, 0.99]]))


def _reference_loglik(kernel, dataset):
    """The likelihood of one measure, (k, q) atoms and (k,) log weights to
    a float, in the arithmetic of the one-proposal-per-step sampler."""
    concat = np.concatenate(dataset.sequences)
    lengths = np.array(dataset.lengths)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    spec = kernel.expfam
    if spec is None:

        def loglik(atoms, log_weights):
            per_seq = np.add.reduceat(kernel.log_density(concat, atoms), starts, axis=1)
            return float(logsumexp(log_weights[:, None] + per_seq, axis=0).sum())

        return loglik

    sums = np.add.reduceat(spec.stat(concat), starts, axis=0)
    rows, counts = np.unique(
        np.column_stack([lengths, sums]), axis=0, return_counts=True
    )
    n, S = rows[:, :1], rows[:, 1:]
    constant = float(spec.log_carrier(concat).sum())

    def loglik(atoms, log_weights):
        eta = spec.natural(atoms)
        mat = log_weights + S @ eta.T - n * spec.log_partition(eta)
        return float(counts @ logsumexp(mat, axis=1)) + constant

    return loglik


def _reference_chain(dataset, kernel, prior, k0, config, seed):
    """The sampler with one proposal per step: draw the step's noise,
    build, check and score its proposal, then accept or reject it."""
    rng = np.random.default_rng(seed)
    loglik = _reference_loglik(kernel, dataset)
    lo, hi = prior.box[:, 0], prior.box[:, 1]
    widths = prior.widths

    def alr_to_weights(u):
        z = np.concatenate([u, [0.0]])
        logw = z - logsumexp(z)
        return np.exp(logw), logw

    start = prior_sample(prior, k0, rng)
    atoms = start.atoms.copy()
    u = np.log(start.weights[:-1] / start.weights[-1])
    weights, logw = alr_to_weights(u)
    current = loglik(atoms, logw) + logw.sum()

    scale = config.initial_scale
    trace = [(0, scale)]
    burn = config.burn_steps
    accepted = 0
    window_accepted = 0
    consecutive_rejects = 0
    kept_atoms = np.empty((config.steps - burn, k0, prior.q))
    kept_weights = np.empty((config.steps - burn, k0))

    for step in range(config.steps):
        noise_atoms = rng.normal(size=atoms.shape)
        noise_u = rng.normal(size=u.shape)
        log_uniform = math.log(rng.random())

        prop_atoms = _reflect_into_box(
            atoms + scale * widths * noise_atoms, lo, hi
        )
        prop_u = u + 2.0 * scale * noise_u
        prop_weights, prop_logw = alr_to_weights(prop_u)
        accept = False
        if measure_fault(prop_atoms, prop_weights) is None:
            proposal = loglik(prop_atoms, prop_logw) + prop_logw.sum()
            accept = current == -math.inf or log_uniform < proposal - current

        if accept:
            atoms = prop_atoms
            u = prop_u
            weights = prop_weights
            current = proposal
            accepted += 1
            window_accepted += 1
            consecutive_rejects = 0
        else:
            consecutive_rejects += 1
            if consecutive_rejects >= config.rejection_window:
                raise AllProposalsRejected(
                    f"{config.rejection_window} consecutive rejections at "
                    f"step {step}; the proposal scale {scale:.3g} is likely "
                    "far off"
                )

        if step < burn and (step + 1) % config.adapt_interval == 0:
            rate = window_accepted / config.adapt_interval
            scale = float(
                np.clip(
                    scale * math.exp(rate - config.target_acceptance),
                    SCALE_FLOOR,
                    SCALE_CEILING,
                )
            )
            window_accepted = 0
            trace.append((step + 1, scale))

        if step >= burn:
            kept_atoms[step - burn] = atoms
            kept_weights[step - burn] = weights

    order = canonical_order(kept_atoms)
    kept_atoms = np.take_along_axis(kept_atoms, order[:, :, None], axis=1)
    kept_weights = np.take_along_axis(kept_weights, order, axis=1)
    return Chain(
        atoms=kept_atoms,
        weights=kept_weights,
        acceptance_rate=accepted / config.steps,
        scale_trace=tuple(trace),
        seed=seed,
    )


def chain_of(draws):
    """A chain whose stored draws are the given measures."""
    return Chain(
        atoms=np.stack([G.atoms for G in draws]),
        weights=np.stack([G.weights for G in draws]),
        acceptance_rate=0.5, scale_trace=((0, 0.25),), seed=None,
    )


def batch_stderr(values, batches=20, statistic=np.mean):
    chunks = np.array_split(np.asarray(values), batches)
    stats = np.array([statistic(c) for c in chunks])
    return float(stats.mean()), float(stats.std(ddof=1) / math.sqrt(batches))


class TestPriorSpec:
    def test_basic_fields(self):
        prior = PriorSpec(BERN, np.array([[0.1, 0.9]]))
        assert prior.q == 1
        assert prior.widths[0] == pytest.approx(0.8)
        assert prior.contains_atoms(np.array([[0.5]]))
        assert not prior.contains_atoms(np.array([[0.95]]))

    def test_box_must_sit_inside_kernel_box(self):
        with pytest.raises(InvalidParameter):
            PriorSpec(BERN, np.array([[-0.1, 0.5]]))
        with pytest.raises(InvalidParameter):
            PriorSpec(BERN, np.array([[0.0, 0.9]]))
        with pytest.raises(InvalidParameter):
            PriorSpec(GammaKernel(), np.array([[0.0, 2.0], [1.0, 3.0]]))

    def test_interval_validation(self):
        with pytest.raises(InvalidParameter):
            PriorSpec(BERN, np.array([[0.9, 0.1]]))
        with pytest.raises(InvalidParameter):
            PriorSpec(BERN, np.array([[0.1, np.inf]]))
        with pytest.raises(InvalidParameter):
            PriorSpec(BERN, np.array([[0.1, 0.9], [0.1, 0.9]]))

    def test_log_density_value_and_support(self):
        prior = PriorSpec(BERN, np.array([[0.01, 0.99]]))
        G = MixingMeasure(np.array([[0.3], [0.8]]), [0.5, 0.5])
        expected = -2.0 * math.log(0.98) + math.lgamma(2)
        assert prior.log_density(G) == pytest.approx(expected, abs=1e-12)
        outside = MixingMeasure(np.array([[0.005], [0.8]]), [0.5, 0.5])
        assert prior.log_density(outside) == float("-inf")


class TestPriorSample:
    def test_atom_coordinates_uniform(self):
        prior = PriorSpec(BERN, np.array([[0.2, 0.7]]))
        rng = np.random.default_rng(5)
        values = np.array(
            [prior_sample(prior, 1, rng).atoms[0, 0] for _ in range(10**4)]
        )
        result = kstest(values, "uniform", args=(0.2, 0.5))
        assert result.pvalue > 0.01

    def test_weights_sum_to_one(self):
        prior = PriorSpec(BERN, np.array([[0.05, 0.95]]))
        rng = np.random.default_rng(6)
        for _ in range(100):
            G = prior_sample(prior, 4, rng)
            assert abs(G.weights.sum() - 1.0) <= 1e-12
            assert np.all(G.weights > 0)

    def test_single_component_weight_exactly_one(self):
        rng = np.random.default_rng(7)
        G = prior_sample(UNIT_PRIOR, 1, rng)
        assert G.weights[0] == 1.0

    def test_bad_k0(self):
        rng = np.random.default_rng(8)
        with pytest.raises(InvalidParameter):
            prior_sample(UNIT_PRIOR, 0, rng)


class TestLogPosterior:
    def test_outside_support_is_minus_inf(self):
        G = MixingMeasure(np.array([[0.005]]), [1.0])
        data = ExchangeableDataset([np.array([1.0, 0.0])])
        assert log_posterior_unnorm(G, data, BERN, UNIT_PRIOR) == float("-inf")

    def test_no_data_gives_log_prior(self):
        G = MixingMeasure(np.array([[0.4]]), [1.0])
        assert log_posterior_unnorm(G, None, BERN, UNIT_PRIOR) == pytest.approx(
            UNIT_PRIOR.log_density(G), abs=1e-12
        )

    def test_single_component_bernoulli_expansion(self):
        G = MixingMeasure(np.array([[0.4]]), [1.0])
        data = ExchangeableDataset(
            [np.array([1.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0, 1.0])]
        )
        value = log_posterior_unnorm(G, data, BERN, UNIT_PRIOR)
        s, t = 5, 7
        expected = (
            s * math.log(0.4)
            + (t - s) * math.log(0.6)
            + UNIT_PRIOR.log_density(G)
        )
        assert value == pytest.approx(expected, abs=1e-12)

    def test_sequence_reordering_invariance(self):
        G = MixingMeasure(np.array([[0.3], [0.7]]), [0.4, 0.6])
        seqs = [
            np.array([1.0, 0.0, 1.0]),
            np.array([0.0, 0.0]),
            np.array([1.0, 1.0, 1.0, 0.0]),
            np.array([1.0]),
        ]
        forward = log_posterior_unnorm(
            G, ExchangeableDataset(seqs), BERN, UNIT_PRIOR
        )
        backward = log_posterior_unnorm(
            G, ExchangeableDataset(seqs[::-1]), BERN, UNIT_PRIOR
        )
        assert forward == pytest.approx(backward, abs=1e-12)

    @pytest.mark.parametrize(
        "kernel, box, atoms",
        [
            (GAUSS, [[-3.0, 3.0]], [[-1.0], [1.5]]),
            (GammaKernel(), [[0.5, 5.0], [0.5, 5.0]], [[1.5, 2.0], [3.0, 1.0]]),
            (UniformKernel(), [[1.0, 5.0]], [[2.5], [4.0]]),
            (
                GaussianLocationMixtureKernel(k=2),
                [[0.2, 0.8], [-3.0, -1.0], [1.0, 3.0]],
                [[0.4, -2.0, 2.0], [0.6, -1.5, 1.5]],
            ),
        ],
        ids=["gaussian", "gamma", "uniform", "gaussian_mixture"],
    )
    def test_continuous_kernel_matches_direct_sum(self, kernel, box, atoms):
        prior = PriorSpec(kernel, np.array(box))
        G = MixingMeasure(np.array(atoms), [0.3, 0.7])
        rng = np.random.default_rng(9)
        seqs = [rng.uniform(0.1, 2.0, size=n) for n in (2, 3, 4, 3)]
        data = ExchangeableDataset(seqs)
        direct = 0.0
        for seq in seqs:
            terms = [
                math.log(w) + float(np.sum(kernel.log_density(seq, atom)))
                for w, atom in zip(G.weights, G.atoms)
            ]
            mx = max(terms)
            direct += mx + math.log(sum(math.exp(v - mx) for v in terms))
        value = log_posterior_unnorm(G, data, kernel, prior)
        assert value == pytest.approx(direct + prior.log_density(G), abs=1e-10)

    @pytest.mark.parametrize(
        "kernel, seq, bad, box",
        [
            (BERN, [2.0, 0.0, 1.0], "2.0", [[0.01, 0.99]]),
            (BERN, [0.5, 0.0, 1.0], "0.5", [[0.01, 0.99]]),
            (GammaKernel(), [1.0, 0.0, 2.0], "0.0", [[0.01, 0.99]] * 2),
            (UniformKernel(), [1.0, -0.5, 2.0], "-0.5", [[1.0, 5.0]]),
            (GammaKernel(normalized=False), [1.0, 0.0, 2.0], "0.0", [[0.01, 0.99]] * 2),
        ],
        ids=[
            "bernoulli_two",
            "bernoulli_fraction",
            "gamma_zero",
            "uniform_negative",
            "gamma_unnormalized_zero",
        ],
    )
    def test_values_outside_support_rejected(self, kernel, seq, bad, box):
        prior = PriorSpec(kernel, np.array(box))
        G = MixingMeasure(prior.box.mean(axis=1)[None, :], [1.0])
        data = ExchangeableDataset([np.array([1.0, 1.0]), np.array(seq)])
        with pytest.raises(InvalidParameter, match=f"value {bad} outside"):
            log_posterior_unnorm(G, data, kernel, prior)
        with pytest.raises(InvalidParameter, match=f"value {bad} outside"):
            mcmc_run(data, kernel, prior, 1, MCMCConfig(steps=50), 3)

    @pytest.mark.parametrize(
        "kernel, box",
        [
            (GAUSS, [[-3.0, 3.0]]),
            (GammaKernel(), [[0.5, 5.0], [0.5, 5.0]]),
            (UniformKernel(), [[4.0, 9.0]]),
        ],
        ids=["gaussian", "gamma", "uniform"],
    )
    def test_stacked_likelihood_equals_one_measure_at_a_time(self, kernel, box):
        # The sampler scores a block of proposals in one call; each entry
        # must be the value of its measure alone, to the bit, and that of
        # the one-measure arithmetic of the reference sampler.
        prior = PriorSpec(kernel, np.array(box))
        rng = np.random.default_rng(12)
        seqs = [rng.uniform(0.1, 3.9, size=n) for n in rng.integers(2, 9, size=300)]
        data = ExchangeableDataset(seqs)
        loglik, _ = _likelihood_evaluator(kernel, data, prior)
        reference = _reference_loglik(kernel, data)
        measures = [prior_sample(prior, 3, rng) for _ in range(PROPOSAL_BLOCK + 3)]
        atoms = np.stack([G.atoms for G in measures])
        log_weights = np.log(np.stack([G.weights for G in measures]))
        stacked = loglik(atoms, log_weights)
        alone = [loglik(a[None], w[None])[0] for a, w in zip(atoms, log_weights)]
        assert stacked.shape == (len(measures),)
        assert stacked.tolist() == alone
        assert alone == [reference(a, w) for a, w in zip(atoms, log_weights)]

    def test_support_check_reads_one_corner_at_a_time(self, monkeypatch):
        # A q = 5 box has 32 corners; the check never builds a
        # corners x samples array, so its memory stays O(sum n_j).
        kernel = GaussianLocationMixtureKernel(k=3)
        box = [[0.1, 0.3], [0.1, 0.3], [-3.0, -2.0], [-1.0, 1.0], [2.0, 3.0]]
        prior = PriorSpec(kernel, np.array(box))
        rows = []
        log_density = kernel.log_density

        def spy(x, theta):
            rows.append(np.shape(theta)[0])
            return log_density(x, theta)

        monkeypatch.setattr(kernel, "log_density", spy)
        G = MixingMeasure(prior.box.mean(axis=1)[None, :], [1.0])
        rng = np.random.default_rng(4)
        data = ExchangeableDataset([rng.normal(size=n) for n in (3, 4, 2)])
        assert np.isfinite(log_posterior_unnorm(G, data, kernel, prior))
        assert rows and set(rows) == {1}

    def test_uniform_chain_may_start_below_the_data_maximum(self):
        # Every start below max(x) = 4.5 has log target -inf; the chain moves
        # on until it finds the support instead of refusing the data.
        kernel = UniformKernel()
        prior = PriorSpec(kernel, np.array([[1.0, 5.0]]))
        data = ExchangeableDataset([np.array([1.0, 4.5]), np.array([2.0, 3.0])])
        start = prior_sample(prior, 1, np.random.default_rng(5))
        assert start.atoms[0, 0] < 4.5
        chain = mcmc_run(data, kernel, prior, 1, MCMCConfig(steps=200), 5)
        assert all(G.atoms[0, 0] > 4.5 for G in chain.draws)


class TestMCMCConfig:
    def test_zero_length_rejected(self):
        with pytest.raises(InvalidParameter):
            MCMCConfig(steps=0)
        with pytest.raises(InvalidParameter):
            MCMCConfig(steps=1)

    def test_burn_fraction_bounds(self):
        with pytest.raises(InvalidParameter):
            MCMCConfig(burn_fraction=1.0)
        with pytest.raises(InvalidParameter):
            MCMCConfig(burn_fraction=-0.1)

    def test_other_knobs(self):
        with pytest.raises(InvalidParameter):
            MCMCConfig(initial_scale=0.0)
        with pytest.raises(InvalidParameter):
            MCMCConfig(target_acceptance=1.0)
        with pytest.raises(InvalidParameter):
            MCMCConfig(adapt_interval=0)
        with pytest.raises(InvalidParameter):
            MCMCConfig(rejection_window=1)


CONJ_DATA = ExchangeableDataset([np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])])


@pytest.fixture(scope="module")
def conjugate_chain():
    return mcmc_run(CONJ_DATA, BERN, UNIT_PRIOR, 1, MCMCConfig(steps=20000), 7)


class TestMCMCRun:
    def test_conjugate_posterior_mean(self, conjugate_chain):
        values = [G.atoms[0, 0] for G in conjugate_chain.draws]
        mean, se = batch_stderr(values)
        assert abs(mean - 0.625) < 3.0 * se

    def test_conjugate_for_random_datasets(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            t = int(rng.integers(5, 12))
            seq = (rng.random(t) < rng.uniform(0.2, 0.8)).astype(float)
            data = ExchangeableDataset([seq])
            s = float(seq.sum())
            target = (s + 1.0) / (t + 2.0)
            chain = mcmc_run(
                data, BERN, UNIT_PRIOR, 1,
                MCMCConfig(steps=12000), 100 + trial,
            )
            values = [G.atoms[0, 0] for G in chain.draws]
            mean, se = batch_stderr(values)
            assert abs(mean - target) < 3.0 * se

    def test_deterministic_given_seed(self):
        config = MCMCConfig(steps=2000)
        a = mcmc_run(CONJ_DATA, BERN, UNIT_PRIOR, 1, config, 7)
        b = mcmc_run(CONJ_DATA, BERN, UNIT_PRIOR, 1, config, 7)
        assert len(a.draws) == len(b.draws)
        for ga, gb in zip(a.draws, b.draws):
            assert np.array_equal(ga.atoms, gb.atoms)
            assert np.array_equal(ga.weights, gb.weights)
        c = mcmc_run(CONJ_DATA, BERN, UNIT_PRIOR, 1, config, 8)
        assert any(
            not np.array_equal(ga.atoms, gc.atoms)
            for ga, gc in zip(a.draws, c.draws)
        )

    @pytest.mark.parametrize(
        "family, digest",
        [
            (
                "bernoulli",
                "3590d5f7a63b44f8e770e334fe29d1da9ec5926e8f4a4331a76d39200401296a",
            ),
            (
                "gaussian",
                "764457c57d6f79d6e5f0cca1cfe8ac446f3bb766dbc0a12085a64257a8141216",
            ),
        ],
    )
    def test_pinned_chain_stream(self, family, digest):
        # The digests pin the chain stream: a change in which proposals are
        # accepted, or in the order draws are stored, changes them.
        if family == "bernoulli":
            kernel, prior, seed = BERN, UNIT_PRIOR, 62
            G0 = MixingMeasure(np.array([[0.25], [0.75]]), [0.4, 0.6])
            rng = np.random.default_rng(61)
            lengths = [3] * 40
        else:
            kernel, prior, seed = GAUSS, PriorSpec(GAUSS, np.array([[-3.0, 3.0]])), 64
            G0 = MixingMeasure(np.array([[-1.0], [1.0]]), [0.4, 0.6])
            rng = np.random.default_rng(63)
            lengths = rng.integers(2, 6, size=30)
        data = sample_dataset(G0, kernel, lengths, rng)
        chain = mcmc_run(data, kernel, prior, 2, MCMCConfig(steps=600), seed)
        h = hashlib.sha256()
        h.update(np.stack([G.atoms for G in chain.draws]).astype("<f8").tobytes())
        h.update(np.stack([G.weights for G in chain.draws]).astype("<f8").tobytes())
        h.update(repr(chain.acceptance_rate).encode())
        h.update(repr(chain.scale_trace).encode())
        assert h.hexdigest() == digest

    def test_detailed_balance_toy_marginal(self):
        # Beta(2, 2) posterior on a symmetric box: mass below 1/2 is 1/2
        data = ExchangeableDataset([np.array([1.0, 0.0])])
        chain = mcmc_run(data, BERN, UNIT_PRIOR, 1, MCMCConfig(steps=20000), 3)
        indicator = [float(G.atoms[0, 0] < 0.5) for G in chain.draws]
        mean, se = batch_stderr(indicator)
        assert abs(mean - 0.5) < 3.0 * se

    def test_two_component_chain_moves_everything(self):
        rng = np.random.default_rng(21)
        G0 = MixingMeasure(np.array([[0.25], [0.75]]), [0.4, 0.6])
        from mixlab.products import sample_dataset

        data = sample_dataset(G0, BERN, [3] * 40, rng)
        chain = mcmc_run(data, BERN, UNIT_PRIOR, 2, MCMCConfig(steps=4000), 5)
        atoms = np.stack([G.atoms[:, 0] for G in chain.draws])
        weights = np.stack([G.weights for G in chain.draws])
        assert atoms.std(axis=0).min() > 0.0
        assert weights.std(axis=0).min() > 0.0
        assert np.all(np.diff(atoms, axis=1) >= 0.0)
        assert 0.0 < chain.acceptance_rate < 1.0

    def test_all_proposals_rejected_diagnostic(self):
        # The rejection runs cross block boundaries, and no window is a
        # multiple of the block size, so each run ends inside a block; the
        # error names the same step as one proposal per step does.
        seqs = [
            np.concatenate([np.ones(25), np.zeros(25)]) for _ in range(200)
        ]
        data = ExchangeableDataset(seqs)
        for scale, window, burn_fraction in (
            (60.0, 150, 0.0), (60.0, 13, 0.5), (3.0, 10, 0.25)
        ):
            config = MCMCConfig(
                steps=3000, burn_fraction=burn_fraction, initial_scale=scale,
                rejection_window=window,
            )
            assert window % PROPOSAL_BLOCK
            with pytest.raises(AllProposalsRejected) as expected:
                _reference_chain(data, BERN, UNIT_PRIOR, 1, config, 12345)
            with pytest.raises(AllProposalsRejected) as raised:
                mcmc_run(data, BERN, UNIT_PRIOR, 1, config, 12345)
            assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize(
        "case",
        [
            "bernoulli_k2",
            "gaussian_k3_variable_lengths",
            "uniform_start_outside_support",
            "gamma_q2",
            "gamma_unnormalized_q2",
            "no_burn_in",
            "adapt_every_step",
            "steps_off_block_and_interval",
        ],
    )
    def test_matches_reference_sampler(self, case):
        kernel, box, k0, seed = BERN, [[0.01, 0.99]], 2, 3
        config = MCMCConfig(steps=700)
        rng = np.random.default_rng(41)
        G0 = MixingMeasure(np.array([[0.25], [0.75]]), [0.4, 0.6])
        lengths = [3] * 40
        if case == "gaussian_k3_variable_lengths":
            kernel, box, k0, seed = GAUSS, [[-4.0, 4.0]], 3, 5
            config = MCMCConfig(steps=700, initial_scale=0.05)
            G0 = MixingMeasure(np.array([[-2.0], [0.0], [2.0]]), [0.3, 0.3, 0.4])
            lengths = rng.integers(2, 9, size=40)
        elif case == "uniform_start_outside_support":
            kernel, box, k0, seed = UniformKernel(), [[1.0, 5.0]], 1, 5
        elif case in ("gamma_q2", "gamma_unnormalized_q2"):
            kernel = GammaKernel(normalized=case == "gamma_q2")
            box, seed = [[1.0, 6.0], [0.5, 3.0]], 9
            config = MCMCConfig(steps=700, initial_scale=0.05)
            G0 = MixingMeasure(np.array([[2.0, 1.0], [4.0, 2.0]]), [0.5, 0.5])
            lengths = [4] * 30
        elif case == "no_burn_in":
            config = MCMCConfig(steps=500, burn_fraction=0.0)
        elif case == "adapt_every_step":
            config = MCMCConfig(steps=400, adapt_interval=1)
        elif case == "steps_off_block_and_interval":
            config = MCMCConfig(steps=613, adapt_interval=37)
            assert config.steps % PROPOSAL_BLOCK and config.steps % 37
            assert config.burn_steps % PROPOSAL_BLOCK and config.burn_steps % 37
        prior = PriorSpec(kernel, np.array(box))
        if case == "uniform_start_outside_support":
            data = ExchangeableDataset([np.array([1.0, 4.5]), np.array([2.0, 3.0])])
            start = prior_sample(prior, 1, np.random.default_rng(seed))
            assert start.atoms[0, 0] < 4.5
        else:
            data = sample_dataset(G0, kernel, lengths, rng)
        chain = mcmc_run(data, kernel, prior, k0, config, seed)
        reference = _reference_chain(data, kernel, prior, k0, config, seed)
        assert np.array_equal(
            np.stack([G.atoms for G in chain.draws]),
            np.stack([G.atoms for G in reference.draws]),
        )
        assert np.array_equal(
            np.stack([G.weights for G in chain.draws]),
            np.stack([G.weights for G in reference.draws]),
        )
        assert type(chain.acceptance_rate) is type(reference.acceptance_rate)
        assert chain.acceptance_rate == reference.acceptance_rate
        assert chain.scale_trace == reference.scale_trace
        assert 0.05 < chain.acceptance_rate < 0.95

    @pytest.mark.parametrize("length", [1, 2, 5, PROPOSAL_BLOCK])
    def test_chain_does_not_depend_on_block_length(self, monkeypatch, length):
        rng = np.random.default_rng(43)
        G0 = MixingMeasure(np.array([[-2.0], [0.0], [2.0]]), [0.3, 0.3, 0.4])
        data = sample_dataset(G0, GAUSS, rng.integers(2, 9, size=40), rng)
        prior = PriorSpec(GAUSS, np.array([[-4.0, 4.0]]))
        config = MCMCConfig(steps=613, adapt_interval=37, initial_scale=0.05)
        monkeypatch.setattr(posterior, "_block_length", lambda rate, cells: length)
        chain = mcmc_run(data, GAUSS, prior, 3, config, 8)
        reference = _reference_chain(data, GAUSS, prior, 3, config, 8)
        assert [G.atoms.tolist() for G in chain.draws] == [
            G.atoms.tolist() for G in reference.draws
        ]
        assert [G.weights.tolist() for G in chain.draws] == [
            G.weights.tolist() for G in reference.draws
        ]
        assert chain.acceptance_rate == reference.acceptance_rate
        assert chain.scale_trace == reference.scale_trace

    def test_block_length_follows_acceptance_and_likelihood_size(self):
        # A chain that rejects everything takes a step per proposal, so the
        # longest block pays; one that accepts everything wastes all but
        # the first proposal of a block.
        assert _block_length(0.0, 10**6) == PROPOSAL_BLOCK
        assert _block_length(1.0, 0) == 1
        assert _block_length(0.234, 10) == PROPOSAL_BLOCK
        assert _block_length(0.234, 10**6) == 1
        lengths = [_block_length(0.234, cells) for cells in (0, 10**3, 10**4, 10**5)]
        assert lengths == sorted(lengths, reverse=True)
        rates = [_block_length(rate, 3000) for rate in (0.05, 0.234, 0.5, 0.9)]
        assert rates == sorted(rates, reverse=True)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("steps", 100.0),
            ("steps", True),
            ("adapt_interval", 2.5),
            ("adapt_interval", "50"),
            ("adapt_interval", True),
            ("rejection_window", 7.5),
            ("burn_fraction", "0.5"),
            ("burn_fraction", math.nan),
            ("initial_scale", None),
            ("initial_scale", math.inf),
            ("initial_scale", True),
            ("target_acceptance", "x"),
        ],
    )
    def test_config_field_types(self, field, value):
        with pytest.raises(InvalidParameter, match=field):
            MCMCConfig(**{field: value})

    def test_config_accepts_numpy_and_integer_values(self):
        config = MCMCConfig(
            steps=np.int64(100), burn_fraction=0, initial_scale=np.float64(0.5),
            adapt_interval=np.int32(10),
        )
        assert config.burn_steps == 0

    def test_input_validation(self):
        with pytest.raises(InvalidParameter):
            mcmc_run(None, BERN, UNIT_PRIOR, 1, MCMCConfig(steps=100), 0)
        with pytest.raises(InvalidParameter):
            mcmc_run(CONJ_DATA, BERN, UNIT_PRIOR, 0, MCMCConfig(steps=100), 0)
        with pytest.raises(InvalidParameter):
            mcmc_run(CONJ_DATA, BERN, UNIT_PRIOR, 1, {"steps": 100}, 0)

    def test_chain_invariants(self):
        # (atoms, weights, acceptance rate), each refused
        cases = [
            (np.empty((0, 1, 1)), np.empty((0, 1)), 0.5),  # no draws
            ([[[0.5]]], [[1.0]], 0.0),
            ([[[0.5]]], [[1.0]], 1.0),
            ([[[0.2], [0.7]]], [[0.5, 0.6]], 0.5),  # weights sum to 1.1
            ([[[0.2], [0.2]]], [[0.5, 0.5]], 0.5),  # duplicate atoms
            ([[[0.2], [np.nan]]], [[0.5, 0.5]], 0.5),
            ([[[0.2], [0.7]]], [[0.5, 0.5], [0.5, 0.5]], 0.5),  # T differs
            ([[[0.2], [0.7]]], [[0.3, 0.3, 0.4]], 0.5),  # k differs
            ([[0.2, 0.7]], [[0.5, 0.5]], 0.5),  # atoms not (T, k, q)
            ([[[0.2], [0.7]]], [["a", "b"]], 0.5),
        ]
        for atoms, weights, rate in cases:
            with pytest.raises(InvalidParameter):
                Chain(atoms, weights, rate, scale_trace=((0, 0.1),), seed=0)

    def test_chain_holds_read_only_arrays(self):
        atoms = np.array([[[0.2], [0.7]], [[0.3], [0.6]]])
        weights = np.array([[0.4, 0.6], [0.5, 0.5]])
        chain = Chain(atoms, weights, 0.5, scale_trace=((0, 0.1),), seed=0)
        atoms[0, 0, 0] = 0.9
        assert chain.atoms[0, 0, 0] == 0.2
        with pytest.raises(ValueError):
            chain.atoms[0, 0, 0] = 0.9
        with pytest.raises(ValueError):
            chain.weights[0, 0] = 0.9
        assert len(chain.draws) == 2
        for G, a, w in zip(chain.draws, chain.atoms, chain.weights):
            assert isinstance(G, MixingMeasure)
            assert np.array_equal(G.atoms, a) and np.array_equal(G.weights, w)

    def test_chains_compare_by_identity(self):
        atoms = np.array([[[0.2], [0.7]], [[0.3], [0.6]]])
        weights = np.array([[0.4, 0.6], [0.5, 0.5]])
        chain = Chain(atoms, weights, 0.5, scale_trace=((0, 0.1),), seed=0)
        twin = Chain(atoms, weights, 0.5, scale_trace=((0, 0.1),), seed=0)
        assert chain == chain
        assert chain != twin

    def test_sampler_and_summary_build_no_per_draw_measures(self, monkeypatch):
        G0 = MixingMeasure(np.array([[0.25], [0.75]]), [0.4, 0.6])
        dataset = ExchangeableDataset([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]] * 10)
        post_init = MixingMeasure.__post_init__
        built = []

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(MixingMeasure, "__post_init__", counting)
        chain = mcmc_run(dataset, BERN, UNIT_PRIOR, 2, MCMCConfig(steps=400), 3)
        posterior_error_summary(chain, G0, 3.0)
        # The one measure is prior_sample's starting point.
        assert len(built) == 1
        assert len(chain.atoms) == 300

    def test_summary_above_the_scan_builds_no_measures(self, monkeypatch):
        rng = np.random.default_rng(5)
        G0 = MixingMeasure(np.linspace(0.05, 0.95, 8)[:, None], np.full(8, 0.125))
        atoms = np.sort(rng.uniform(0.0, 1.0, (20, 8, 1)), axis=1)
        chain = Chain(atoms, rng.dirichlet(np.ones(8), 20), 0.5, ((0, 0.1),), 0)
        post_init = MixingMeasure.__post_init__
        built = []

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(MixingMeasure, "__post_init__", counting)
        posterior_error_summary(chain, G0, 3.0)
        assert built == []


class TestPosteriorErrorSummary:
    def test_chain_of_copies_gives_zeros(self):
        G0 = MixingMeasure(np.array([[0.25], [0.75]]), [0.4, 0.6])
        chain = chain_of((G0,) * 50)
        summary = posterior_error_summary(chain, G0, 3.0)
        for metric in ("D_N", "d_theta", "d_p"):
            for key in ("q50", "q90", "q95"):
                assert summary[metric][key] == 0.0

    def test_quantiles_monotone(self, conjugate_chain):
        G0 = MixingMeasure(np.array([[0.625]]), [1.0])
        summary = posterior_error_summary(conjugate_chain, G0, 6.0)
        for metric in ("D_N", "d_theta", "d_p"):
            q = summary[metric]
            assert q["q50"] <= q["q90"] <= q["q95"]

    def test_median_atom_error_matches_beta(self, conjugate_chain):
        G0 = MixingMeasure(np.array([[0.625]]), [1.0])
        summary = posterior_error_summary(conjugate_chain, G0, 6.0)
        cdf = beta_dist(5, 3).cdf
        analytic = brentq(
            lambda t: cdf(0.625 + t) - cdf(0.625 - t) - 0.5, 1e-6, 0.4
        )
        errors = [abs(G.atoms[0, 0] - 0.625) for G in conjugate_chain.draws]
        _, se = batch_stderr(errors, statistic=np.median)
        assert abs(summary["d_theta"]["q50"] - analytic) < 3.0 * se

    def test_matches_per_draw_distances(self):
        rng = np.random.default_rng(17)
        prior = PriorSpec(BERN, np.array([[0.05, 0.95]]))
        G0 = canonicalize(prior_sample(prior, 2, rng))
        draws = tuple(
            canonicalize(prior_sample(prior, 2, rng)) for _ in range(100)
        )
        chain = chain_of(draws)
        summary = posterior_error_summary(chain, G0, 2.5)
        direct = np.quantile(
            [distance_DN(G, G0, 2.5) for G in draws], [0.5, 0.9, 0.95]
        )
        assert summary["D_N"]["q50"] == pytest.approx(direct[0], abs=1e-12)
        assert summary["D_N"]["q90"] == pytest.approx(direct[1], abs=1e-12)
        assert summary["D_N"]["q95"] == pytest.approx(direct[2], abs=1e-12)

    @pytest.mark.parametrize("k", [3, 8])
    def test_summary_does_not_depend_on_the_block_size(self, monkeypatch, k):
        rng = np.random.default_rng(29)
        prior = PriorSpec(BERN, np.array([[0.05, 0.95]]))
        G0 = canonicalize(prior_sample(prior, k, rng))
        chain = chain_of([canonicalize(prior_sample(prior, k, rng)) for _ in range(30)])
        whole = posterior_error_summary(chain, G0, 4.0)
        monkeypatch.setattr(posterior, "MATCHING_BLOCK_ENTRIES", 1)
        assert posterior_error_summary(chain, G0, 4.0) == whole

    @pytest.mark.parametrize("k", [3, 7, 8])
    def test_component_errors_come_from_one_matching(self, k):
        from mixlab.measures import optimal_matching

        rng = np.random.default_rng(23)
        prior = PriorSpec(BERN, np.array([[0.05, 0.95]]))
        G0 = canonicalize(prior_sample(prior, k, rng))
        draws = tuple(
            canonicalize(prior_sample(prior, k, rng)) for _ in range(60)
        )
        chain = chain_of(draws)
        summary = posterior_error_summary(chain, G0, 4.0)
        atom_err = []
        weight_err = []
        for G in draws:
            perm = list(optimal_matching(G, G0).permutation)
            atom_err.append(
                float(np.abs(G.atoms[perm] - G0.atoms).sum())
            )
            weight_err.append(
                float(np.abs(G.weights[perm] - G0.weights).sum())
            )
        mixed = [distance_DN(G, G0, 4.0) for G in draws]
        for key, values in (
            ("D_N", mixed), ("d_theta", atom_err), ("d_p", weight_err)
        ):
            direct = np.quantile(values, [0.5, 0.9, 0.95])
            for q, v in zip(("q50", "q90", "q95"), direct):
                assert summary[key][q] == pytest.approx(v, abs=1e-12)

    def test_canonicalization_removes_label_switching(self):
        rng = np.random.default_rng(19)
        prior = PriorSpec(BERN, np.array([[0.05, 0.95]]))
        G0 = prior_sample(prior, 3, rng)
        for _ in range(100):
            G = prior_sample(prior, 3, rng)
            direct = atom_and_weight_distances(G, G0)
            sorted_version = atom_and_weight_distances(canonicalize(G), G0)
            assert direct[0] == pytest.approx(sorted_version[0], abs=1e-12)
            assert direct[1] == pytest.approx(sorted_version[1], abs=1e-12)

    @pytest.mark.parametrize(
        "draw, truth",
        [
            (([[0.5]], [1.0]), ([[0.25], [0.75]], [0.4, 0.6])),
            (([[0.25], [0.75]], [0.4, 0.6]), ([[0.25, 0.1], [0.75, 0.1]], [0.4, 0.6])),
        ],
        ids=["k", "q"],
    )
    def test_truth_shape_must_match_the_draws(self, draw, truth):
        chain = chain_of((MixingMeasure(*draw),) * 5)
        G0 = MixingMeasure(*truth)
        with pytest.raises(MismatchedSupportSize) as err:
            posterior_error_summary(chain, G0, 3.0)
        assert str(chain.atoms.shape[1:]) in str(err.value)
        assert str(G0.atoms.shape) in str(err.value)

    def test_nbar_validation(self, conjugate_chain):
        G0 = MixingMeasure(np.array([[0.625]]), [1.0])
        with pytest.raises(InvalidParameter):
            posterior_error_summary(conjugate_chain, G0, 0.0)


class TestContractionExperiment:
    G0 = MixingMeasure(np.array([[0.25], [0.75]]), [0.4, 0.6])

    def test_size_grid_needs_two_points(self):
        with pytest.raises(InvalidParameter):
            contraction_experiment(
                BERN, self.G0, (100,), ("constant", 3), 5,
                MCMCConfig(steps=100), 0,
            )

    @pytest.mark.parametrize(
        "m_grid, replicates",
        [
            ((20, 40.9, 60), 2),
            ((20, 40.0, 60), 2),
            ((20, True, 60), 2),
            ((20, "40", 60), 2),
            ((20, 40, 60), 1.9),
            ((20, 40, 60), 2.0),
            ((20, 40, 60), True),
        ],
    )
    def test_non_integer_sizes_rejected(self, m_grid, replicates):
        with pytest.raises(InvalidParameter, match="must be an integer"):
            contraction_experiment(
                BERN, self.G0, m_grid, ("constant", 3), replicates,
                MCMCConfig(steps=100), 0,
            )

    def test_length_below_identifiable_length(self):
        with pytest.raises(InvalidParameter):
            contraction_experiment(
                BERN, self.G0, (50, 100), ("constant", 2), 2,
                MCMCConfig(steps=100), 0,
            )
        with pytest.raises(InvalidParameter):
            contraction_experiment(
                BERN, self.G0, (50, 100), ("uniform", 2, 5), 2,
                MCMCConfig(steps=100), 0,
            )

    def test_bad_length_law(self):
        with pytest.raises(InvalidParameter):
            contraction_experiment(
                BERN, self.G0, (50, 100), ("geometric", 3), 2,
                MCMCConfig(steps=100), 0,
            )

    @pytest.mark.parametrize(
        "law", [("constant", 2.7), ("uniform", 2.9, 3.5), ("uniform", 3, "5")]
    )
    def test_non_integer_lengths_rejected(self, law):
        with pytest.raises(InvalidParameter):
            resolve_length_law(law)

    def test_nonbinary_requires_prior(self):
        G = MixingMeasure(np.array([[-0.5], [0.5]]), [0.5, 0.5])
        with pytest.raises(InvalidParameter):
            contraction_experiment(
                GAUSS, G, (20, 40), ("constant", 2), 2,
                MCMCConfig(steps=100), 0,
            )

    def test_truth_must_lie_in_prior_box(self):
        shifted = MixingMeasure(np.array([[0.005], [0.75]]), [0.4, 0.6])
        with pytest.raises(InvalidParameter):
            contraction_experiment(
                BERN, shifted, (20, 40), ("constant", 3), 2,
                MCMCConfig(steps=100), 0,
            )

    def test_small_run_structure_and_determinism(self):
        config = MCMCConfig(steps=1200)
        kwargs = dict(
            kernel=BERN, G0=self.G0, m_grid=(30, 60),
            length_law=("constant", 3), replicates=2, config=config,
        )
        a = contraction_experiment(rng=42, **kwargs)
        kwargs.update(m_grid=np.array([30, 60]), replicates=np.int64(2))
        b = contraction_experiment(rng=42, **kwargs)
        c = contraction_experiment(rng=42, workers=2, **kwargs)
        assert len(a.rows) == 4
        assert a.rows == b.rows == c.rows
        assert a.params == b.params
        grid, replicates = b.params["m_grid"], b.params["replicates"]
        assert [type(m) for m in grid] == [int, int] and type(replicates) is int
        for row in a.rows:
            assert row["N_bar"] == 3.0
            assert row["total_length"] == 3 * row["m"]
            for metric in ("D_N", "d_theta", "d_p"):
                for key in ("q50", "q90", "q95"):
                    assert row[f"{metric}_{key}"] >= 0.0
        for fit in a.slopes.values():
            assert set(fit) == {"slope", "stderr", "ci_lo", "ci_hi", "r_squared"}
            assert fit["ci_lo"] <= fit["slope"] <= fit["ci_hi"]

    def test_uniform_length_law(self):
        config = MCMCConfig(steps=800)
        report = contraction_experiment(
            BERN, self.G0, (20, 40), ("uniform", 3, 5), 2, config, 11,
        )
        for row in report.rows:
            assert 3.0 <= row["N_bar"] <= 5.0
            assert 3 * row["m"] <= row["total_length"] <= 5 * row["m"]

    def test_report_invariants(self):
        with pytest.raises(InvalidParameter):
            ContractionReport(params={}, rows=(), slopes={})
        with pytest.raises(InvalidParameter):
            ContractionReport(
                params={},
                rows=({"m": 10, "d_p_q50": -0.1},),
                slopes={},
            )
        with pytest.raises(InvalidParameter):
            ContractionReport(
                params={},
                rows=({"m": 10, "d_p_q50": 0.1},),
                slopes={"fit": {"slope": -0.5}},
            )

    def test_row_records_and_envelope(self):
        config = MCMCConfig(steps=800)
        report = contraction_experiment(
            BERN, self.G0, (20, 40), ("constant", 3), 2, config, 13,
        )
        records = report.row_records()
        assert len(records) == len(report.rows)
        import json

        text = json.dumps(report.slope_envelope())
        assert "d_p_vs_m" in json.loads(text)["slopes"]
