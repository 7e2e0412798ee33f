import dataclasses
import itertools
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import mixlab
from mixlab.errors import (
    BudgetExceeded,
    InvalidParameter,
    LengthMismatch,
    MismatchedSupportSize,
    QuadratureNonConvergence,
)
from mixlab.kernels import (
    BernoulliKernel,
    BetaPushforwardKernel,
    GammaKernel,
    GaussianLocationKernel,
    KernelFamily,
    UniformKernel,
    logsumexp,
)
from mixlab.measures import MixingMeasure
from mixlab.products import (
    DivergenceEstimate,
    ExchangeableDataset,
    ProductMixtureModel,
    _mc_chunk,
    _mc_estimate,
    _quadrature_estimate_n2,
    d_mh,
    estimate_divergence,
    hellinger_upper_bound,
    sample_dataset,
    tv_upper_bound,
)
from mixlab.rng import CHUNK, chunk_stream

BERN = BernoulliKernel()
GAUSS = GaussianLocationKernel(1.0)


def bernoulli_brute_tv(G, G2, N):
    """Sum over all 2^N binary outcomes."""
    total = 0.0
    for xs in itertools.product((0.0, 1.0), repeat=N):
        s = sum(xs)
        p = sum(
            w * t**s * (1 - t) ** (N - s)
            for w, t in zip(G.weights, G.atoms[:, 0])
        )
        q = sum(
            w * t**s * (1 - t) ** (N - s)
            for w, t in zip(G2.weights, G2.atoms[:, 0])
        )
        total += abs(p - q)
    return 0.5 * total


def bern_measure(thetas, weights):
    return MixingMeasure(np.array(thetas)[:, None], np.array(weights))


class TestProductDensity:
    def test_n1_equals_plain_mixture(self):
        G = bern_measure([0.3, 0.7], [0.5, 0.5])
        model = ProductMixtureModel(G, BERN, 1)
        val = math.exp(model.log_density([1.0]))
        assert val == pytest.approx(0.5 * 0.3 + 0.5 * 0.7, abs=1e-14)

    def test_k1_is_iid_log_sum(self):
        G = MixingMeasure(np.array([[0.4]]), np.array([1.0]))
        model = ProductMixtureModel(G, GAUSS, 3)
        xs = [0.1, -0.2, 1.3]
        expected = sum(GAUSS.log_density(x, [0.4]) for x in xs)
        assert model.log_density(xs) == pytest.approx(expected, rel=1e-12)

    def test_bernoulli_hand_enumeration(self):
        G = bern_measure([0.3, 0.7], [0.5, 0.5])
        model = ProductMixtureModel(G, BERN, 2)
        val = model.log_density([1.0, 0.0])
        assert val == pytest.approx(math.log(0.21), abs=1e-12)

    def test_length_mismatch(self):
        G = bern_measure([0.3, 0.7], [0.5, 0.5])
        model = ProductMixtureModel(G, BERN, 2)
        with pytest.raises(LengthMismatch):
            model.log_density([1.0, 0.0, 1.0])

    def test_atom_outside_kernel_box(self):
        G = bern_measure([0.3, 1.5], [0.5, 0.5])
        with pytest.raises(InvalidParameter):
            ProductMixtureModel(G, BERN, 2)

    def test_invalid_N(self):
        G = bern_measure([0.3, 0.7], [0.5, 0.5])
        with pytest.raises(InvalidParameter):
            ProductMixtureModel(G, BERN, 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", ["gamma", "bernoulli", "gaussian"])
    def test_summed_statistic_matches_per_observation_sum(self, family, rng):
        """The expfam scoring equals logsumexp over atoms of log w plus the
        summed per-observation kernel log densities; a gamma row holding an
        exact 0 has log density -inf on both sides, without a warning."""
        N = 5
        if family == "gamma":
            kernel = GammaKernel()
            G = MixingMeasure(np.array([[2.3, 1.4], [0.8, 0.6]]), [0.3, 0.7])
            X = rng.gamma(2.0, 1.0, size=(40, N))
            X[3, 2] = 0.0
        elif family == "bernoulli":
            kernel = BERN
            G = bern_measure([0.3, 0.7], [0.5, 0.5])
            X = (rng.random((40, N)) < 0.5).astype(float)
        else:
            kernel = GAUSS
            G = MixingMeasure(np.array([[0.4], [-1.1]]), [0.6, 0.4])
            X = rng.normal(0.0, 1.5, size=(40, N))
        model = ProductMixtureModel(G, kernel, N)
        with np.errstate(divide="ignore", invalid="ignore"):
            per_obs = np.array(
                [[[kernel.log_density(x, atom) for x in row] for row in X]
                 for atom in G.atoms]
            )
        expected = logsumexp(
            per_obs.sum(axis=-1) + np.log(G.weights)[:, None], axis=0
        )
        got = model.log_density_many(X)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
        if family == "gamma":
            assert got[3] == -np.inf
        assert model.log_density(X[0]) == pytest.approx(expected[0], rel=1e-12)


class TestSampleDataset:
    def test_single_component(self, rng):
        G = MixingMeasure(np.array([[0.5]]), np.array([1.0]))
        ds = sample_dataset(G, BERN, [3, 5, 2], rng, seed=123)
        assert ds.m == 3
        assert ds.lengths == [3, 5, 2]
        assert ds.seed == 123
        assert ds.total_length == 10

    def test_negligible_weight_component_never_drawn(self, rng):
        eps = 1e-300
        G = bern_measure([0.2, 0.9], [1.0 - eps, eps])
        ds = sample_dataset(G, BERN, [1] * 2000, rng)
        values = np.concatenate(ds.sequences)
        assert abs(values.mean() - 0.2) < 0.05

    def test_mixture_mean(self):
        from mixlab.rng import stream

        G = bern_measure([0.2, 0.9], [0.5, 0.5])
        ds = sample_dataset(G, BERN, [1] * 10**4, stream(7, "ds-test"))
        values = np.concatenate(ds.sequences)
        sd = math.sqrt(0.55 * 0.45 / 10**4)
        assert abs(values.mean() - 0.55) < 4 * sd

    def test_jsonl_round_trip(self, rng, tmp_path):
        G = bern_measure([0.2, 0.9], [0.4, 0.6])
        ds = sample_dataset(G, BERN, [2, 4, 1], rng, seed=5)
        path = tmp_path / "data.jsonl"
        ds.to_jsonl(path)
        back = ExchangeableDataset.from_jsonl(path)
        assert back.m == ds.m
        assert back.seed is None
        for a, b in zip(ds.sequences, back.sequences):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"seq": [1.0, 2.0',
            '{"values": [1.0]}',
            '{"seq": ["a", 1.0]}',
            '{"seq": [null]}',
            '{"seq": []}',
        ],
    )
    def test_jsonl_bad_line_names_path_and_line(self, tmp_path, bad_line):
        path = tmp_path / "data.jsonl"
        path.write_text('{"seq": [0.5, 1.5]}\n' + bad_line + '\n{"seq": [2.0]}\n')
        with pytest.raises(InvalidParameter, match=r"data\.jsonl, line 2\b"):
            ExchangeableDataset.from_jsonl(path)

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidParameter):
            ExchangeableDataset(sequences=[[]])

    def test_datasets_compare_by_identity(self):
        data = ExchangeableDataset([[1.0, 0.0, 1.0]])
        twin = ExchangeableDataset([[1.0, 0.0, 1.0]])
        assert data == data
        assert data != twin
        assert len({data, twin}) == 2


class TestUpperBounds:
    def test_identical_measures_zero(self):
        G = bern_measure([0.3, 0.7], [0.5, 0.5])
        assert hellinger_upper_bound(G, G, BERN, 3) == pytest.approx(0.0, abs=1e-12)
        assert tv_upper_bound(G, G, BERN, 3) == pytest.approx(0.0, abs=1e-12)

    def test_weights_only(self):
        G = bern_measure([0.3, 0.7], [0.5, 0.5])
        G2 = bern_measure([0.3, 0.7], [0.3, 0.7])
        assert hellinger_upper_bound(G, G2, BERN, 5) == pytest.approx(
            math.sqrt(0.2), abs=1e-12
        )
        assert tv_upper_bound(G, G2, BERN, 5) == pytest.approx(0.2, abs=1e-12)

    def test_single_atom_shift(self):
        G = bern_measure([0.5], [1.0])
        G2 = bern_measure([0.6], [1.0])
        h1 = BERN.closed_divergence("hellinger", [0.5], [0.6])
        assert hellinger_upper_bound(G, G2, BERN, 4) == pytest.approx(
            2 * h1, rel=1e-12
        )
        v1 = abs(0.5 - 0.6)
        assert tv_upper_bound(G, G2, BERN, 1) == pytest.approx(v1, abs=1e-12)

    def test_atoms_outside_kernel_box_rejected(self):
        G = MixingMeasure(np.array([[-1.0], [2.0]]), [0.5, 0.5])
        G2 = MixingMeasure(np.array([[1.0], [3.0]]), [0.5, 0.5])
        for bound in (tv_upper_bound, hellinger_upper_bound):
            with pytest.raises(InvalidParameter):
                bound(G, G2, UniformKernel(), 1)

    def test_mismatched_k(self):
        G = bern_measure([0.3, 0.7], [0.5, 0.5])
        G2 = bern_measure([0.5], [1.0])
        with pytest.raises(MismatchedSupportSize):
            hellinger_upper_bound(G, G2, BERN, 2)

    def test_large_k_rejected(self):
        thetas = np.linspace(0.05, 0.95, 8)
        G = bern_measure(thetas, np.full(8, 1 / 8))
        with pytest.raises(BudgetExceeded):
            tv_upper_bound(G, G, BERN, 2)

    def test_bound_dominates_exact(self, rng):
        for _ in range(25):
            k = rng.integers(1, 4)
            t1 = np.sort(rng.uniform(0.1, 0.9, k))
            t2 = np.sort(rng.uniform(0.1, 0.9, k))
            while np.min(np.diff(t1), initial=1) < 0.05 or np.min(
                np.diff(t2), initial=1
            ) < 0.05:
                t1 = np.sort(rng.uniform(0.1, 0.9, k))
                t2 = np.sort(rng.uniform(0.1, 0.9, k))
            w1 = rng.dirichlet(np.ones(k)) * 0.8 + 0.2 / k
            w2 = rng.dirichlet(np.ones(k)) * 0.8 + 0.2 / k
            G = bern_measure(t1, w1 / w1.sum())
            G2 = bern_measure(t2, w2 / w2.sum())
            N = int(rng.integers(1, 5))
            tv = estimate_divergence(G, G2, BERN, N, "tv").value
            h = estimate_divergence(G, G2, BERN, N, "hellinger").value
            assert tv <= tv_upper_bound(G, G2, BERN, N) + 1e-10
            assert h <= hellinger_upper_bound(G, G2, BERN, N) + 1e-10


class TestEstimateDivergence:
    def test_identical_exact_zero(self):
        G = bern_measure([0.3, 0.7], [0.5, 0.5])
        est = estimate_divergence(G, G, BERN, 4, "tv")
        assert est.method == "exact-enumeration"
        assert est.value == 0.0
        assert est.stderr == 0.0

    def test_single_atom_tv_spot(self):
        G = bern_measure([0.3], [1.0])
        G2 = bern_measure([0.7], [1.0])
        est = estimate_divergence(G, G2, BERN, 1, "tv")
        assert est.value == pytest.approx(0.4, abs=1e-12)

    def test_exact_matches_brute_force(self, rng):
        G = bern_measure([0.25, 0.6], [0.35, 0.65])
        G2 = bern_measure([0.3, 0.8], [0.5, 0.5])
        for N in (1, 2, 3):
            est = estimate_divergence(G, G2, BERN, N, "tv")
            brute = bernoulli_brute_tv(G, G2, N)
            assert est.value == pytest.approx(brute, abs=1e-12)

    def test_count_probs_sum_to_one(self):
        G = bern_measure([0.25, 0.6], [0.35, 0.65])
        for N in (1, 4, 9):
            counts = BERN.sufficient_kernel(N)
            probs = G.weights @ counts.density(counts.points, G.atoms)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_N(self):
        G = bern_measure([0.25, 0.6], [0.35, 0.65])
        G2 = bern_measure([0.3, 0.8], [0.5, 0.5])
        for which in ("tv", "hellinger"):
            vals = [
                estimate_divergence(G, G2, BERN, N, which).value
                for N in range(1, 7)
            ]
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-12)

    def test_tv_hellinger_classical_chain(self, rng):
        for _ in range(20):
            t1 = np.sort(rng.uniform(0.1, 0.9, 2))
            t2 = np.sort(rng.uniform(0.1, 0.9, 2))
            if min(np.diff(t1)[0], np.diff(t2)[0]) < 0.05:
                continue
            G = bern_measure(t1, [0.4, 0.6])
            G2 = bern_measure(t2, [0.7, 0.3])
            for N in (1, 3, 5):
                tv = estimate_divergence(G, G2, BERN, N, "tv").value
                h = estimate_divergence(G, G2, BERN, N, "hellinger").value
                assert h * h - 1e-10 <= tv
                assert tv <= h * math.sqrt(2.0 - h * h) + 1e-10

    def test_gaussian_quadrature_n1_matches_closed(self):
        G = MixingMeasure(np.array([[0.0]]), np.array([1.0]))
        G2 = MixingMeasure(np.array([[1.0]]), np.array([1.0]))
        est = estimate_divergence(G, G2, GAUSS, 1, "hellinger")
        assert est.method == "quadrature"
        closed = GAUSS.closed_divergence("hellinger", [0.0], [1.0])
        assert est.value == pytest.approx(closed, abs=1e-8)
        est_tv = estimate_divergence(G, G2, GAUSS, 1, "tv")
        closed_tv = GAUSS.closed_divergence("tv", [0.0], [1.0])
        assert est_tv.value == pytest.approx(closed_tv, abs=1e-8)

    def test_gaussian_tensor_n2_matches_closed(self):
        G = MixingMeasure(np.array([[0.0]]), np.array([1.0]))
        G2 = MixingMeasure(np.array([[0.8]]), np.array([1.0]))
        est = estimate_divergence(G, G2, GAUSS, 2, "hellinger")
        assert est.method == "quadrature"
        h1sq = 1.0 - math.exp(-(0.8**2) / 8.0)
        h2sq = 1.0 - (1.0 - h1sq) ** 2
        assert est.value == pytest.approx(math.sqrt(h2sq), abs=1e-7)

    def test_gamma_tensor_n2_single_atoms(self):
        G = MixingMeasure(np.array([[2.0, 3.0]]), np.array([1.0]))
        G2 = MixingMeasure(np.array([[3.0, 3.0]]), np.array([1.0]))
        ker = GammaKernel()
        est = estimate_divergence(G, G2, ker, 2, "hellinger")
        h1 = ker.closed_divergence("hellinger", [2.0, 3.0], [3.0, 3.0])
        expected = math.sqrt(1.0 - (1.0 - h1**2) ** 2)
        assert est.value == pytest.approx(expected, abs=1e-7)

    def test_tensor_n2_memory_is_bounded(self):
        # The converged grid has 8192^2 node pairs: one dense float64 matrix
        # of that size alone is 512 MiB, so three of them exceed the limit.
        script = textwrap.dedent(
            """
            import resource
            limit = 1536 * 2**20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            import numpy as np
            from mixlab.kernels import GaussianLocationKernel
            from mixlab.measures import MixingMeasure
            from mixlab.products import _quadrature_estimate_n2
            G = MixingMeasure(np.array([[-1.0], [0.0], [1.2]]), [0.3, 0.3, 0.4])
            H = MixingMeasure(np.array([[-0.9], [0.1], [1.0]]), [0.35, 0.3, 0.35])
            est = _quadrature_estimate_n2(G, H, GaussianLocationKernel(1.0), "tv")
            print(est.n, est.value)
            """
        )
        src = os.path.dirname(os.path.dirname(mixlab.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        n, value = proc.stdout.split()
        assert int(n) >= 8192**2
        assert 0.0 < float(value) < 1.0

    def test_mc_matches_exact_bernoulli(self):
        G = bern_measure([0.25, 0.6], [0.35, 0.65])
        G2 = bern_measure([0.3, 0.8], [0.5, 0.5])
        exact = estimate_divergence(G, G2, BERN, 3, "tv").value
        est = _mc_estimate(G, G2, BERN, 3, "tv", 200_000, 11, None, "test-mc")
        assert est.method == "monte-carlo"
        assert est.stderr > 0
        assert abs(est.value - exact) < 4 * est.stderr

    def test_mc_hellinger_matches_exact(self):
        G = bern_measure([0.25, 0.6], [0.35, 0.65])
        G2 = bern_measure([0.3, 0.8], [0.5, 0.5])
        exact = estimate_divergence(G, G2, BERN, 3, "hellinger").value
        est = _mc_estimate(
            G, G2, BERN, 3, "hellinger", 200_000, 13, None, "test-mc-h"
        )
        assert abs(est.value - exact) < 4 * est.stderr

    def test_mc_worker_invariance(self):
        G = MixingMeasure(np.array([[0.0]]), np.array([1.0]))
        G2 = MixingMeasure(np.array([[0.5]]), np.array([1.0]))
        one = _mc_estimate(G, G2, GAUSS, 3, "tv", 100_000, 5, 1, "inv")
        four = _mc_estimate(G, G2, GAUSS, 3, "tv", 100_000, 5, 4, "inv")
        assert one.value == four.value
        assert one.stderr == four.stderr

    def test_mc_identical_within_stderr(self):
        G = MixingMeasure(np.array([[0.0]]), np.array([1.0]))
        est = _mc_estimate(G, G, GAUSS, 3, "tv", 50_000, 3, None, "divergence/tv/N3")
        assert est.method == "monte-carlo"
        assert abs(est.value) <= max(3 * est.stderr, 1e-12)

    def test_budget_too_small(self):
        G = MixingMeasure(np.array([[2.0, 3.0]]), np.array([1.0]))
        G2 = MixingMeasure(np.array([[3.0, 3.0]]), np.array([1.0]))
        with pytest.raises(BudgetExceeded):
            estimate_divergence(G, G2, GammaKernel(), 3, "tv", budget=100)

    def test_gamma_mixture_tv_n1_crossings(self):
        G = MixingMeasure(
            np.array(
                [
                    [2.008876266650109, 2.9941305866309067],
                    [3.043540093856084, 2.951097311667459],
                ]
            ),
            np.array([0.5196513928733786, 0.4803486071266214]),
        )
        G2 = MixingMeasure(
            np.array(
                [
                    [2.167751403726444, 2.994446426388437],
                    [2.966745428333435, 3.1118301112716633],
                ]
            ),
            np.array([0.43694007054811956, 0.5630599294518804]),
        )
        est = estimate_divergence(G, G2, GammaKernel(), 1, "tv")
        assert abs(est.value - 0.029336104844427) < 1e-10

    @pytest.mark.parametrize("which", ["tv", "hellinger"])
    def test_unbounded_beta_density_raises_n1(self, which):
        ker = BetaPushforwardKernel(0.891)
        G = MixingMeasure(
            np.array([[0.388, 4.299, 7.044], [0.405, 3.205, 5.468]]),
            np.array([0.4, 0.6]),
        )
        G2 = MixingMeasure(
            np.array([[0.495, 2.148, 6.049], [0.699, 2.928, 4.978]]),
            np.array([0.55, 0.45]),
        )
        with pytest.raises(QuadratureNonConvergence):
            estimate_divergence(G, G2, ker, 1, which)

    def test_uniform_n1_quadrature(self):
        ker = UniformKernel()
        G = MixingMeasure(np.array([[1.0]]), np.array([1.0]))
        G2 = MixingMeasure(np.array([[2.0]]), np.array([1.0]))
        est = estimate_divergence(G, G2, ker, 1, "tv")
        assert est.value == pytest.approx(0.5, abs=1e-9)

    def test_estimate_validates_inputs(self):
        G = bern_measure([0.3, 0.7], [0.5, 0.5])
        with pytest.raises(InvalidParameter):
            estimate_divergence(G, G, BERN, 2, "kl")
        with pytest.raises(InvalidParameter):
            estimate_divergence(G, G, BERN, 0, "tv")

    def test_divergence_estimate_invariants(self):
        with pytest.raises(InvalidParameter):
            DivergenceEstimate(value=0.5, stderr=0.1, method="quadrature", n=10)
        with pytest.raises(InvalidParameter):
            DivergenceEstimate(value=1.5, stderr=0.0, method="quadrature", n=10)
        with pytest.raises(InvalidParameter):
            DivergenceEstimate(value=0.5, stderr=0.0, method="magic", n=10)


GAUSS3 = (
    MixingMeasure(np.array([[-1.5], [0.0], [1.5]]), [0.3, 0.3, 0.4]),
    MixingMeasure(np.array([[-1.2], [0.3], [1.9]]), [0.4, 0.25, 0.35]),
)


class TestSufficientReduction:
    """Gaussian location cells at any N run on the law of the sample mean."""

    @pytest.mark.parametrize("sigma", [1.0, 0.7])
    @pytest.mark.parametrize("N", [1, 3, 64, 1000])
    def test_single_atoms_match_closed_forms(self, N, sigma):
        d = 0.3
        G = MixingMeasure(np.array([[0.0]]), np.array([1.0]))
        G2 = MixingMeasure(np.array([[d]]), np.array([1.0]))
        kernel = GaussianLocationKernel(sigma)
        tv = estimate_divergence(G, G2, kernel, N, "tv")
        h = estimate_divergence(G, G2, kernel, N, "hellinger")
        assert tv.method == h.method == "quadrature"
        assert tv.stderr == h.stderr == 0.0
        closed_tv = math.erf(math.sqrt(N) * d / (2 * math.sqrt(2) * sigma))
        closed_h2 = -math.expm1(-N * d**2 / (8 * sigma**2))
        assert abs(tv.value - closed_tv) < 1e-12
        assert abs(h.value**2 - closed_h2) < 1e-12

    @pytest.mark.parametrize("which", ["tv", "hellinger"])
    def test_mixtures_match_tensor_grid_at_two(self, which):
        G, G2 = GAUSS3
        est = estimate_divergence(G, G2, GAUSS, 2, which)
        tensor = _quadrature_estimate_n2(G, G2, GAUSS, which)
        assert est.method == "quadrature"
        assert abs(est.value - tensor.value) < 1e-7

    @pytest.mark.parametrize("which", ["tv", "hellinger"])
    @pytest.mark.parametrize("N", [3, 8, 64])
    def test_mixtures_match_monte_carlo(self, N, which):
        G, G2 = GAUSS3
        est = estimate_divergence(G, G2, GAUSS, N, which, budget=100)
        mc = _mc_estimate(G, G2, GAUSS, N, which, 100_000, 17, None, "reduce")
        assert est.method == "quadrature"
        assert est.stderr == 0.0
        assert abs(est.value - mc.value) < 4 * mc.stderr

    @pytest.mark.parametrize("sigma", [1.0, 1e-2, 3e-3, 1e-4, 1e-6])
    def test_narrow_components_match_erf_identity(self, sigma):
        # The shared atom cancels, leaving half the TV of the moved pair.
        G = MixingMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        G2 = MixingMeasure(np.array([[0.5], [1.0]]), np.array([0.5, 0.5]))
        tv = estimate_divergence(G, G2, GaussianLocationKernel(sigma), 1, "tv")
        closed = 0.5 * math.erf(0.5 / (2 * math.sqrt(2) * sigma))
        assert abs(tv.value - closed) < 1e-12

    @pytest.mark.parametrize("N", [4096, 262144, 10**8])
    def test_reduced_pair_with_narrow_components(self, N):
        # At these N the components near -1 and near 1 sit hundreds of
        # standard errors apart, so each group contributes on its own:
        # TV by its crossing point and Hellinger's affinity in closed form.
        G = MixingMeasure(np.array([[-1.0], [1.0]]), np.array([0.4, 0.6]))
        G2 = MixingMeasure(np.array([[-0.9], [1.2]]), np.array([0.45, 0.55]))
        s = 1.0 / math.sqrt(N)
        groups = ((0.4, -1.0, 0.45, -0.9), (0.6, 1.0, 0.55, 1.2))

        def tail(z):  # P(Z > z)
            return 0.5 * math.erfc(z / math.sqrt(2))

        tv = affinity = 0.0
        for a, m1, b, m2 in groups:
            c = 0.5 * (m1 + m2) + s * s * math.log(a / b) / (m2 - m1)
            left = a * tail((m1 - c) / s) - b * tail((m2 - c) / s)
            right = b * tail((c - m2) / s) - a * tail((c - m1) / s)
            tv += 0.5 * (left + right)
            affinity += math.sqrt(a * b) * math.exp(-((m2 - m1) ** 2) / (8 * s * s))
        got_tv = estimate_divergence(G, G2, GAUSS, N, "tv").value
        got_h = estimate_divergence(G, G2, GAUSS, N, "hellinger").value
        assert abs(got_tv - tv) < 1e-10
        assert abs(got_h - math.sqrt(1.0 - affinity)) < 1e-10

    def test_count_law_enumeration_is_capped(self):
        assert BERN.sufficient_kernel(10**6).points.size == 10**6 + 1
        with pytest.raises(BudgetExceeded, match="support points"):
            BERN.sufficient_kernel(10**6 + 1)
        G, G2 = bern_measure([0.3], [1.0]), bern_measure([0.4], [1.0])
        with pytest.raises(BudgetExceeded, match="support points"):
            estimate_divergence(G, G2, BERN, 10**12, "tv")

    def test_other_kernels_have_no_reduction(self):
        assert GammaKernel().sufficient_kernel(3) is None
        counts = BERN.sufficient_kernel(3)
        assert counts.trials == 3
        assert counts.points.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert counts.density(2.0, [0.4]) == pytest.approx(3 * 0.4**2 * 0.6, abs=1e-15)
        assert GaussianLocationKernel(2.0).sufficient_kernel(4).sigma == 1.0


GAMMA_PAIR = (
    MixingMeasure(np.array([[2.0, 3.0], [3.0, 3.0]]), [0.5, 0.5]),
    MixingMeasure(np.array([[2.2, 3.0], [3.0, 3.1]]), [0.45, 0.55]),
)
# Shape 0.002 puts about 11% of all draws at exactly 0.0 (underflow).
GAMMA_UNDERFLOW_PAIR = (
    MixingMeasure(np.array([[0.002, 1.0], [0.5, 2.0]]), [0.5, 0.5]),
    MixingMeasure(np.array([[0.003, 1.0], [0.5, 2.5]]), [0.4, 0.6]),
)


def reference_chunk(modelP, modelQ, which, size, rng):
    """One Monte Carlo chunk as the per-observation path scores it: the same
    draws in the same order (pick, then P's components, then Q's), each
    model scored by kernel.log_density on every observation. Returns the
    two sums and the draws."""
    pick = rng.random(size) < 0.5
    X = np.empty((size, modelP.N))
    X[pick] = modelP.sample(int(pick.sum()), rng)
    X[~pick] = modelQ.sample(int((~pick).sum()), rng)

    def log_density(model):
        with np.errstate(divide="ignore", invalid="ignore"):
            comp = model.kernel.log_density(X, model.measure.atoms).sum(axis=-1)
        return logsumexp(comp + np.log(model.measure.weights)[:, None], axis=0)

    with np.errstate(invalid="ignore", over="ignore"):
        d = log_density(modelP) - log_density(modelQ)
        if which == "tv":
            vals = np.tanh(np.abs(d) / 2.0)
        else:
            vals = 1.0 - 1.0 / np.cosh(d / 2.0)
    vals = np.where(np.isnan(d), 1.0, vals)
    return float(vals.sum()), float((vals**2).sum()), X


class TestMonteCarloChunk:
    """Gamma Monte Carlo scores each chunk once through the summed
    statistic, on the same draws as the per-observation path."""

    @pytest.mark.parametrize("which", ["tv", "hellinger"])
    @pytest.mark.parametrize("N", [3, 8])
    @pytest.mark.parametrize("pair", ["plain", "underflow"])
    def test_chunk_matches_per_observation_reference(self, pair, N, which):
        G, G2 = GAMMA_PAIR if pair == "plain" else GAMMA_UNDERFLOW_PAIR
        modelP = ProductMixtureModel(G, GammaKernel(), N)
        modelQ = ProductMixtureModel(G2, GammaKernel(), N)
        for index in range(2):
            rng = chunk_stream(5, "reference", index)
            s1, s2 = _mc_chunk(modelP, modelQ, which, CHUNK, rng)
            rng = chunk_stream(5, "reference", index)
            r1, r2, X = reference_chunk(modelP, modelQ, which, CHUNK, rng)
            assert (pair == "underflow") == bool((X == 0.0).any())
            assert s1 == pytest.approx(r1, rel=1e-12, abs=0)
            assert s2 == pytest.approx(r2, rel=1e-12, abs=0)

    @pytest.mark.parametrize("N", [3, 8])
    def test_gamma_estimate_is_bit_identical_across_workers(self, N):
        G, G2 = GAMMA_PAIR
        runs = [
            _mc_estimate(G, G2, GammaKernel(), N, "tv", 100_000, 9, workers, "w")
            for workers in (1, 2, 4)
        ]
        assert len({(run.value, run.stderr) for run in runs}) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("which", ["tv", "hellinger"])
    def test_underflowed_draws_raise_no_warning(self, which):
        G, G2 = GAMMA_UNDERFLOW_PAIR
        est = _mc_estimate(G, G2, GammaKernel(), 3, which, 10**5, 3, 2, "zero")
        assert 0.0 < est.value < 1.0
        assert est.stderr > 0.0

    @pytest.mark.parametrize(
        "N, which, pinned",
        [
            (8, "tv", (0.11097563456564855, 0.0003039972159866797)),
            (3, "hellinger", (0.061923162008015044, 0.00027858618745115035)),
        ],
    )
    @pytest.mark.parametrize("workers", [None, 2])
    def test_each_model_computes_its_offsets_once(
        self, monkeypatch, N, which, pinned, workers
    ):
        # A model's natural parameters and log w - N A(eta) are fixed by its
        # measure: the chunks share them, and the estimate keeps its bits.
        kernel = GammaKernel()
        calls = []
        log_partition = kernel.expfam.log_partition

        def counting(eta):
            calls.append(np.shape(eta))
            return log_partition(eta)

        spec = dataclasses.replace(kernel.expfam, log_partition=counting)
        monkeypatch.setattr(kernel, "expfam", spec)
        G, G2 = GAMMA_PAIR
        budget = 10**5
        assert budget > CHUNK
        est = _mc_estimate(G, G2, kernel, N, which, budget, 9, workers, "w")
        assert calls == [(2, 2)] * 2
        assert (est.value, est.stderr) == pinned

    def test_gamma_monte_carlo_never_calls_kernel_log_density(self, monkeypatch):
        calls = []
        original = KernelFamily.log_density

        def counting(self, x, theta):
            calls.append(np.shape(x))
            return original(self, x, theta)

        monkeypatch.setattr(KernelFamily, "log_density", counting)
        G, G2 = GAMMA_PAIR
        est = estimate_divergence(G, G2, GammaKernel(), 3, "tv", budget=10**4)
        assert est.method == "monte-carlo"
        assert calls == []


class TestDmh:
    def test_constant_lengths_equal_single(self):
        G = bern_measure([0.25, 0.6], [0.35, 0.65])
        G2 = bern_measure([0.3, 0.8], [0.5, 0.5])
        h3 = estimate_divergence(G, G2, BERN, 3, "hellinger").value
        assert d_mh(G, G2, BERN, [3, 3, 3, 3]) == pytest.approx(h3, abs=1e-12)

    def test_identical_zero(self):
        G = bern_measure([0.25, 0.6], [0.35, 0.65])
        assert d_mh(G, G, BERN, [1, 2, 3]) == 0.0

    def test_mixed_lengths_hand_combined(self):
        G = bern_measure([0.25, 0.6], [0.35, 0.65])
        G2 = bern_measure([0.3, 0.8], [0.5, 0.5])
        h1 = estimate_divergence(G, G2, BERN, 1, "hellinger").value
        h3 = estimate_divergence(G, G2, BERN, 3, "hellinger").value
        expected = math.sqrt((h1**2 + h3**2) / 2.0)
        assert d_mh(G, G2, BERN, [1, 3]) == pytest.approx(expected, abs=1e-12)

    def test_empty_lengths(self):
        G = bern_measure([0.25, 0.6], [0.35, 0.65])
        with pytest.raises(InvalidParameter):
            d_mh(G, G, BERN, [])
