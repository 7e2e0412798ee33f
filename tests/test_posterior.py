"""Tests for the posterior sampler and the contraction experiment."""

import hashlib
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import beta as beta_dist
from scipy.stats import kstest

from mixlab.errors import AllProposalsRejected, InvalidParameter
from mixlab.kernels import BernoulliKernel, GammaKernel, GaussianLocationKernel
from mixlab.measures import (
    MixingMeasure,
    atom_and_weight_distances,
    canonicalize,
    distance_DN,
)
from mixlab.posterior import (
    Chain,
    ContractionReport,
    MCMCConfig,
    PriorSpec,
    contraction_experiment,
    log_posterior_unnorm,
    mcmc_run,
    posterior_error_summary,
    prior_sample,
)
from mixlab.products import ExchangeableDataset, sample_dataset

BERN = BernoulliKernel()
GAUSS = GaussianLocationKernel(1.0)
UNIT_PRIOR = PriorSpec(BERN, np.array([[0.01, 0.99]]))


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

    def test_continuous_kernel_matches_direct_sum(self):
        prior = PriorSpec(GAUSS, np.array([[-3.0, 3.0]]))
        G = MixingMeasure(np.array([[-1.0], [1.5]]), [0.3, 0.7])
        rng = np.random.default_rng(9)
        seqs = [rng.normal(size=n) for n in (2, 3, 4)]
        data = ExchangeableDataset(seqs)
        direct = 0.0
        for seq in seqs:
            terms = [
                math.log(w) + float(np.sum(GAUSS.log_density(seq, atom)))
                for w, atom in zip(G.weights, G.atoms)
            ]
            mx = max(terms)
            direct += mx + math.log(sum(math.exp(v - mx) for v in terms))
        value = log_posterior_unnorm(G, data, GAUSS, prior)
        assert value == pytest.approx(direct + prior.log_density(G), abs=1e-10)


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
        seqs = [
            np.concatenate([np.ones(25), np.zeros(25)]) for _ in range(200)
        ]
        data = ExchangeableDataset(seqs)
        config = MCMCConfig(
            steps=3000, burn_fraction=0.0, initial_scale=60.0,
            rejection_window=150,
        )
        with pytest.raises(AllProposalsRejected):
            mcmc_run(data, BERN, UNIT_PRIOR, 1, config, 12345)

    def test_input_validation(self):
        with pytest.raises(InvalidParameter):
            mcmc_run(None, BERN, UNIT_PRIOR, 1, MCMCConfig(steps=100), 0)
        with pytest.raises(InvalidParameter):
            mcmc_run(CONJ_DATA, BERN, UNIT_PRIOR, 0, MCMCConfig(steps=100), 0)
        with pytest.raises(InvalidParameter):
            mcmc_run(CONJ_DATA, BERN, UNIT_PRIOR, 1, {"steps": 100}, 0)

    def test_chain_invariants(self):
        G = MixingMeasure(np.array([[0.5]]), [1.0])
        with pytest.raises(InvalidParameter):
            Chain(draws=(), acceptance_rate=0.5, scale_trace=((0, 0.1),), seed=0)
        with pytest.raises(InvalidParameter):
            Chain(draws=(G,), acceptance_rate=0.0, scale_trace=((0, 0.1),), seed=0)
        with pytest.raises(InvalidParameter):
            Chain(draws=(G,), acceptance_rate=1.0, scale_trace=((0, 0.1),), seed=0)


class TestPosteriorErrorSummary:
    def test_chain_of_copies_gives_zeros(self):
        G0 = MixingMeasure(np.array([[0.25], [0.75]]), [0.4, 0.6])
        chain = Chain(
            draws=(G0,) * 50, acceptance_rate=0.5,
            scale_trace=((0, 0.25),), seed=None,
        )
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
        chain = Chain(
            draws=draws, acceptance_rate=0.5, scale_trace=((0, 0.25),),
            seed=None,
        )
        summary = posterior_error_summary(chain, G0, 2.5)
        direct = np.quantile(
            [distance_DN(G, G0, 2.5) for G in draws], [0.5, 0.9, 0.95]
        )
        assert summary["D_N"]["q50"] == pytest.approx(direct[0], abs=1e-12)
        assert summary["D_N"]["q90"] == pytest.approx(direct[1], abs=1e-12)
        assert summary["D_N"]["q95"] == pytest.approx(direct[2], abs=1e-12)

    @pytest.mark.parametrize("k", [3, 7])
    def test_component_errors_come_from_one_matching(self, k):
        from mixlab.measures import optimal_matching

        rng = np.random.default_rng(23)
        prior = PriorSpec(BERN, np.array([[0.05, 0.95]]))
        G0 = canonicalize(prior_sample(prior, k, rng))
        draws = tuple(
            canonicalize(prior_sample(prior, k, rng)) for _ in range(60)
        )
        chain = Chain(
            draws=draws, acceptance_rate=0.5, scale_trace=((0, 0.25),),
            seed=None,
        )
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
        b = contraction_experiment(rng=42, **kwargs)
        c = contraction_experiment(rng=42, workers=2, **kwargs)
        assert len(a.rows) == 4
        assert a.rows == b.rows == c.rows
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
