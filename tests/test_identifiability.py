import itertools

import numpy as np
import pytest

from mixlab.errors import (
    InvalidParameter,
    NonDifferentiablePoint,
    QuadratureNonConvergence,
    RootBracketingFailed,
)
from mixlab.identifiability import (
    _gram_eigenvalue,
    LinearSystemReport,
    bernoulli_first_order_system,
    bernoulli_nonidentifiable_witness,
    degenerate_direction_check,
    first_order_gram,
    gen_vandermonde_det,
)
from mixlab.kernels import (
    BernoulliKernel,
    BetaPushforwardKernel,
    GammaKernel,
    GaussianLocationKernel,
    UniformKernel,
    divergence_numeric,
)
from mixlab.measures import MixingMeasure, distance_DN
from mixlab.products import estimate_divergence

BERN = BernoulliKernel()


def pairwise_quartic(xs):
    xs = np.asarray(xs, dtype=float)
    prod = 1.0
    for a, b in itertools.combinations(range(xs.size), 2):
        prod *= (xs[a] - xs[b]) ** 4
    return prod


def bern_measure(thetas, weights):
    atoms = np.asarray(thetas, dtype=float).reshape(-1, 1)
    return MixingMeasure(atoms, np.asarray(weights, dtype=float))


class TestGenVandermondeDet:
    def test_single_point_is_one(self):
        assert gen_vandermonde_det([0.37]) == pytest.approx(1.0, abs=1e-12)
        assert gen_vandermonde_det([0.37], basis="bernstein") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_two_point_monomial_spot(self):
        assert gen_vandermonde_det([0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_bernstein_spot(self):
        det = gen_vandermonde_det([0.3, 0.7], basis="bernstein", n=3)
        assert det == pytest.approx(0.0256, abs=1e-12)

    def test_bernstein_degree_defaults(self):
        xs = [0.2, 0.55, 0.8]
        explicit = gen_vandermonde_det(xs, basis="bernstein", n=5)
        implicit = gen_vandermonde_det(xs, basis="bernstein")
        assert explicit == implicit

    def test_matches_product_formula(self, rng):
        for k in (2, 3, 4, 5):
            for _ in range(5):
                xs = rng.uniform(0.05, 0.95, size=k)
                while np.min(np.abs(np.subtract.outer(xs, xs))[np.triu_indices(k, 1)]) < 0.03:
                    xs = rng.uniform(0.05, 0.95, size=k)
                expected = pairwise_quartic(xs)
                mono = gen_vandermonde_det(xs)
                bern = gen_vandermonde_det(xs, basis="bernstein")
                assert mono == pytest.approx(expected, rel=1e-8)
                assert bern == pytest.approx(expected, rel=1e-8)

    def test_monomial_wide_range(self, rng):
        xs = rng.uniform(-3.0, 3.0, size=3)
        xs += np.arange(3) * 0.5
        assert gen_vandermonde_det(xs) == pytest.approx(
            pairwise_quartic(xs), rel=1e-8
        )

    def test_duplicate_points_vanish(self):
        assert abs(gen_vandermonde_det([0.4, 0.4])) < 1e-10
        assert abs(
            gen_vandermonde_det([0.2, 0.6, 0.6], basis="bernstein")
        ) < 1e-10

    def test_unknown_basis_rejected(self):
        with pytest.raises(InvalidParameter):
            gen_vandermonde_det([0.3, 0.7], basis="chebyshev")

    def test_bernstein_degree_too_small(self):
        with pytest.raises(InvalidParameter):
            gen_vandermonde_det([0.3, 0.7], basis="bernstein", n=2)

    def test_empty_points_rejected(self):
        with pytest.raises(InvalidParameter):
            gen_vandermonde_det([])


class TestBernoulliFirstOrderSystem:
    def test_full_rank_spot(self):
        G = bern_measure([0.3, 0.7], [0.5, 0.5])
        report = bernoulli_first_order_system(G, 3)
        assert report.rank == 4
        assert report.nullspace.shape == (4, 0)
        assert abs(np.linalg.det(report.matrix)) == pytest.approx(
            0.0256, rel=1e-10
        )

    def test_short_length_nullspace(self):
        G = bern_measure([0.3, 0.7], [0.5, 0.5])
        report = bernoulli_first_order_system(G, 2)
        assert report.rank == 3
        assert report.nullspace.shape == (4, 1)
        v = report.nullspace[:, 0]
        norm = np.linalg.norm(report.matrix, 2)
        assert np.linalg.norm(report.matrix @ v) <= 1e-8 * norm

    def test_reports_compare_by_identity(self):
        G = bern_measure([0.3, 0.7], [0.5, 0.5])
        report = bernoulli_first_order_system(G, 3)
        twin = bernoulli_first_order_system(G, 3)
        assert report == report
        assert report != twin
        assert len({report, twin}) == 2

    def test_three_atom_ranks(self):
        G = bern_measure([0.2, 0.5, 0.8], [0.3, 0.3, 0.4])
        assert bernoulli_first_order_system(G, 5).rank == 6
        assert bernoulli_first_order_system(G, 4).rank == 5

    def test_random_rank_law(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(1, 10))
            th = rng.uniform(0.05, 0.95, size=k)
            while k > 1 and np.min(
                np.abs(np.subtract.outer(th, th))[np.triu_indices(k, 1)]
            ) < 0.04:
                th = rng.uniform(0.05, 0.95, size=k)
            w = rng.dirichlet(np.ones(k))
            while w.min() < 1e-3:
                w = rng.dirichlet(np.ones(k))
            G = bern_measure(th, w)
            report = bernoulli_first_order_system(G, n)
            assert report.rank == min(n + 1, 2 * k)
            assert report.matrix.shape == (n + 1, 2 * k)

    def test_atom_outside_unit_interval(self):
        G = MixingMeasure(np.array([[1.2]]), np.array([1.0]))
        with pytest.raises(InvalidParameter):
            bernoulli_first_order_system(G, 3)

    def test_vector_atoms_rejected(self):
        G = MixingMeasure(np.array([[0.3, 0.4]]), np.array([1.0]))
        with pytest.raises(InvalidParameter):
            bernoulli_first_order_system(G, 3)

    def test_bad_length_rejected(self):
        G = bern_measure([0.3, 0.7], [0.5, 0.5])
        with pytest.raises(InvalidParameter):
            bernoulli_first_order_system(G, 0)

    def test_report_invariant_enforced(self):
        with pytest.raises(InvalidParameter):
            LinearSystemReport(
                matrix=np.eye(2),
                rank=1,
                smallest_singular_value=1.0,
                nullspace=np.zeros((2, 0)),
            )


class TestNonIdentifiableWitness:
    def test_spot_construction(self):
        G = bern_measure([0.4, 0.7], [0.5, 0.5])
        wit = bernoulli_nonidentifiable_witness(G, 1.0)
        assert wit.n == 2
        t1, t2 = np.sort(wit.witness.atoms[:, 0])
        assert 0.0 < t1 < 0.4
        assert 0.4 < t2 < 0.7
        assert wit.moment_mismatch < 1e-10
        assert wit.tv_at_n < 1e-10
        tv3 = estimate_divergence(G, wit.witness, BERN, 3, "tv").value
        assert tv3 > 1e-4

    def test_distinct_free_parameters_give_distinct_witnesses(self):
        G = bern_measure([0.4, 0.7], [0.5, 0.5])
        w1 = bernoulli_nonidentifiable_witness(G, 1.0).witness
        w2 = bernoulli_nonidentifiable_witness(G, 2.0).witness
        assert distance_DN(w1, w2, 1) > 1e-6

    def test_random_measures(self, rng):
        for _ in range(8):
            k = int(rng.integers(2, 4))
            th = np.sort(rng.uniform(0.1, 0.9, size=k))
            while np.min(np.diff(th)) < 0.1:
                th = np.sort(rng.uniform(0.1, 0.9, size=k))
            w = rng.dirichlet(np.ones(k)) * 0.7 + 0.3 / k
            G = bern_measure(th, w / w.sum())
            for a in (1.0, 2.0):
                wit = bernoulli_nonidentifiable_witness(G, a)
                assert wit.moment_mismatch < 1e-10
                assert wit.tv_at_n < 1e-10
                tv_next = estimate_divergence(
                    G, wit.witness, BERN, 2 * k - 1, "tv"
                ).value
                assert tv_next > 1e-4

    def test_shorter_products_also_match(self):
        G = bern_measure([0.2, 0.5, 0.8], [0.3, 0.3, 0.4])
        wit = bernoulli_nonidentifiable_witness(G, 1.0)
        assert wit.n == 4
        for length in (1, 2, 3, 4):
            tv = estimate_divergence(G, wit.witness, BERN, length, "tv").value
            assert tv < 1e-10
        assert estimate_divergence(G, wit.witness, BERN, 5, "tv").value > 1e-4

    def test_single_atom_rejected(self):
        G = bern_measure([0.5], [1.0])
        with pytest.raises(InvalidParameter):
            bernoulli_nonidentifiable_witness(G, 1.0)

    def test_nonpositive_parameter_rejected(self):
        G = bern_measure([0.4, 0.7], [0.5, 0.5])
        with pytest.raises(InvalidParameter):
            bernoulli_nonidentifiable_witness(G, 0.0)
        with pytest.raises(InvalidParameter):
            bernoulli_nonidentifiable_witness(G, -1.0)

    def test_repeated_calls_are_bit_identical(self):
        G = bern_measure([0.15, 0.35, 0.6, 0.85], [0.2, 0.3, 0.25, 0.25])
        first = bernoulli_nonidentifiable_witness(G, 1.0).witness
        for _ in range(9):
            again = bernoulli_nonidentifiable_witness(G, 1.0).witness
            assert again.atoms.tobytes() == first.atoms.tobytes()
            assert again.weights.tobytes() == first.weights.tobytes()

    def test_nearly_coincident_atoms_break_down(self):
        G = bern_measure([0.5, 0.5 + 1e-15], [0.5, 0.5])
        with pytest.raises(RootBracketingFailed):
            bernoulli_nonidentifiable_witness(G, 1.0)


class TestFirstOrderGram:
    def test_gaussian_pair_independent(self):
        value = first_order_gram(GaussianLocationKernel(1.0), [[0.0], [1.0]])
        assert value > 1e-4

    def test_gamma_pathological_pair_degenerate(self):
        value = first_order_gram(GammaKernel(), [[2.0, 3.0], [3.0, 3.0]])
        assert value < 1e-10

    def test_gamma_generic_pair_independent(self):
        value = first_order_gram(GammaKernel(), [[2.0, 3.0], [3.0, 4.0]])
        assert value > 1e-6

    def test_unnormalized_gamma_same_degeneracy_status(self):
        raw = GammaKernel(normalized=False)
        assert first_order_gram(raw, [[2.0, 3.0], [3.0, 3.0]]) < 1e-10
        assert first_order_gram(raw, [[2.0, 3.0], [3.0, 4.0]]) > 1e-6

    def test_single_binary_atom(self):
        value = first_order_gram(BERN, [[0.5]])
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_explicit_grid_matches_auto_for_binary(self):
        auto = first_order_gram(BERN, [[0.3]])
        explicit = first_order_gram(
            BERN, [[0.3]], {"points": [0.0, 1.0], "weights": [1.0, 1.0]}
        )
        assert auto == pytest.approx(explicit, abs=1e-14)

    def test_uniform_wall_point_not_differentiable(self):
        with pytest.raises(NonDifferentiablePoint):
            first_order_gram(
                UniformKernel(),
                [[1.0]],
                {"points": [0.5, 1.0], "weights": [1.0, 1.0]},
            )

    def test_bad_grid_spec(self):
        with pytest.raises(InvalidParameter):
            first_order_gram(BERN, [[0.5]], "dense")
        with pytest.raises(InvalidParameter):
            first_order_gram(BERN, [[0.5]], {"points": [0.0, 1.0]})

    def test_atom_dimension_checked(self):
        with pytest.raises(InvalidParameter):
            first_order_gram(GammaKernel(), [[2.0], [3.0]])

    @pytest.mark.parametrize(
        "grid",
        [
            {},
            {"points": "x"},
            {"points": [0.0, "a"]},
            {"points": [0.0, 1.0], "weights": "x"},
        ],
        ids=["no_points", "points_string", "point_string", "weights_string"],
    )
    def test_malformed_explicit_grid_rejected(self, grid):
        G0 = MixingMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        kernel = GaussianLocationKernel(1.0)
        with pytest.raises(InvalidParameter):
            first_order_gram(kernel, G0.atoms, grid)
        if "weights" not in grid:  # the residual check reads only the points
            with pytest.raises(InvalidParameter):
                degenerate_direction_check(kernel, G0, [1.0, 0.0, 0.5, -0.5], grid)


class TestDegenerateDirectionCheck:
    def test_gamma_known_direction_vanishes(self):
        G0 = MixingMeasure(
            np.array([[2.0, 3.0], [3.0, 3.0]]), np.array([0.5, 0.5])
        )
        direction = [0.0, 1.5, 0.0, 0.0, -1.0, 1.0]
        assert degenerate_direction_check(GammaKernel(), G0, direction) < 1e-10

    def test_random_direction_does_not_vanish(self, rng):
        G0 = MixingMeasure(
            np.array([[2.0, 3.0], [3.0, 3.0]]), np.array([0.5, 0.5])
        )
        for _ in range(5):
            raw = rng.normal(size=6)
            raw[5] = -raw[4]
            if np.linalg.norm(raw) < 1e-3:
                continue
            value = degenerate_direction_check(GammaKernel(), G0, raw)
            assert value > 1e-3

    def test_gaussian_pair_never_degenerate(self, rng):
        G0 = MixingMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        for _ in range(5):
            raw = rng.normal(size=4)
            raw[3] = -raw[2]
            value = degenerate_direction_check(
                GaussianLocationKernel(1.0), G0, raw
            )
            assert value > 1e-3

    def test_zero_direction_rejected(self):
        G0 = MixingMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        with pytest.raises(InvalidParameter):
            degenerate_direction_check(
                GaussianLocationKernel(1.0), G0, [0.0, 0.0, 0.0, 0.0]
            )

    def test_unbalanced_masses_rejected(self):
        G0 = MixingMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        with pytest.raises(InvalidParameter):
            degenerate_direction_check(
                GaussianLocationKernel(1.0), G0, [1.0, 0.0, 0.5, 0.5]
            )

    def test_wrong_length_rejected(self):
        G0 = MixingMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        with pytest.raises(InvalidParameter):
            degenerate_direction_check(
                GaussianLocationKernel(1.0), G0, [1.0, -1.0]
            )


class TestUnboundedDensity:
    """A density unbounded at a finite support end is refused by both
    automatic checks, naming that end in the interval the open panels were
    left in. At alpha * xi = 0.75 < 1 the first Beta component is unbounded
    at 0, a segment end of the 1-D engine, which refuses TV the same way.
    A gamma shape below 1 is unbounded at 0 as well; the automatic grid
    runs to that support end rather than stopping at the tail cut, past
    which the squared features of a shape of at most 1/2 have no finite
    integral."""

    @pytest.mark.parametrize(
        "kernel, atoms, direction",
        [
            (BetaPushforwardKernel(0.3), [[0.5, 2.5, 6.0]], [1.0, 0.0, 0.0, 0.0]),
            (GammaKernel(), [[0.5, 1.0], [2.0, 1.0]], [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
            (GammaKernel(), [[0.9, 1.0], [2.0, 1.0]], [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
        ],
        ids=["beta", "gamma_half", "gamma_0.9"],
    )
    @pytest.mark.parametrize("check", ["gram", "direction"])
    def test_refused_naming_the_unbounded_end(self, kernel, atoms, direction, check):
        G0 = MixingMeasure(np.array(atoms), np.full(len(atoms), 1.0 / len(atoms)))
        with pytest.raises(QuadratureNonConvergence, match=r"all in \[0\.0, "):
            if check == "gram":
                first_order_gram(kernel, G0.atoms)
            else:
                degenerate_direction_check(kernel, G0, direction)

    def test_beta_tv_refused_at_the_same_end(self):
        kernel = BetaPushforwardKernel(0.3)
        with pytest.raises(QuadratureNonConvergence, match=r"all in \[0\.0, "):
            divergence_numeric(kernel, [0.5, 2.5, 6.0], [0.5, 4.0, 6.0], "tv")


def graded_reference(kernel, atoms, top, ends):
    """The Gram eigenvalue on a 40-point Gauss-Legendre rule over 200
    panels halving toward each support end in ends, then 1,000 equal
    panels up to top: a grid built apart from the 1-D engine."""
    halving = 2.0 ** np.arange(-200, 0)
    edges = [np.linspace(0.0, top, 1001)]
    for end in ends:
        edges.append(end + np.sign(0.5 - end) * halving * 0.5)
    edges = np.unique(np.concatenate(edges + [[0.0, 1.0]]))
    edges = edges[edges <= top]
    lo, hi = edges[:-1, None], edges[1:, None]
    x, w = np.polynomial.legendre.leggauss(40)
    nodes = (0.5 * (lo + hi) + 0.5 * (hi - lo) * x).ravel()
    weights = (0.5 * (hi - lo) * w).ravel()
    return _gram_eigenvalue(kernel, np.array(atoms), nodes, weights)


class TestAutoGridAccuracy:
    """The automatic Gram against a grid built apart from the 1-D engine.
    Where a density is smooth, its own panels are few and wide, and the
    log factor of the gamma shape score at 0 is lost on them (an error of
    43% at shape 1); the halving mesh toward 0 resolves it."""

    @pytest.mark.parametrize(
        "kernel, atoms, top, ends",
        [
            (GammaKernel(), [[1.0, 1.0], [2.0, 1.5]], 80.0, [0.0]),
            (GammaKernel(), [[2.0, 3.0], [3.0, 4.0]], 80.0, [0.0]),
            (GammaKernel(), [[1.5, 2.0], [3.0, 3.0]], 80.0, [0.0]),
            (GammaKernel(normalized=False), [[2.0, 3.0], [3.0, 4.0]], 80.0, [0.0]),
            (BetaPushforwardKernel(0.3), [[0.5, 4.0, 9.0]], 1.0, [0.0, 1.0]),
        ],
        ids=["gamma_shape_one", "gamma_2_3", "gamma_1.5_2", "raw_gamma", "beta"],
    )
    def test_matches_a_separate_grid(self, kernel, atoms, top, ends):
        want = graded_reference(kernel, atoms, top, ends)
        # The Beta gradients are central differences, good to about 1e-9.
        assert first_order_gram(kernel, atoms) == pytest.approx(want, rel=1e-8)
