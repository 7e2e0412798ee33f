import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog

from mixlab.errors import InvalidMeasure, InvalidParameter, MismatchedSupportSize
from mixlab.measures import (
    MixingMeasure,
    _transport_plan,
    atom_and_weight_distances,
    canonicalize,
    distance_DN,
    distance_Dr1r2,
    least_matchings,
    measure_fault,
    optimal_matching,
    valid_measures,
    wasserstein,
)

from conftest import (
    brute_force_DN,
    brute_force_Dr1r2,
    brute_force_atom_weight,
    random_measure,
)


def two_atom(atoms, weights):
    return MixingMeasure(np.asarray(atoms, dtype=float), np.asarray(weights))


class TestMixingMeasure:
    def test_valid_construction(self):
        G = two_atom([0.2, 0.8], [0.5, 0.5])
        assert G.k == 2 and G.q == 1
        assert G.rho == pytest.approx(0.6)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidMeasure) as err:
            two_atom([0.2, 0.8], [0.5, 0.6])
        assert str(err.value) == "weights must sum to 1 within 1e-12; got 1.1"

    def test_weights_must_be_positive(self):
        with pytest.raises(InvalidMeasure):
            two_atom([0.2, 0.8], [1.0, 0.0])

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(InvalidMeasure):
            two_atom([0.5, 0.5], [0.5, 0.5])

    def test_nonfinite_atoms_rejected(self):
        with pytest.raises(InvalidMeasure):
            two_atom([0.5, np.inf], [0.5, 0.5])

    def test_ragged_or_non_numeric_atoms_rejected(self):
        with pytest.raises(InvalidMeasure):
            MixingMeasure([[0.2, 0.3], [0.5]], [0.5, 0.5])
        with pytest.raises(InvalidMeasure):
            MixingMeasure(["a", "b"], [0.5, 0.5])

    def test_valid_measures_agree_with_measure_fault(self):
        atoms = np.array([
            [[0.2, 1.0], [0.8, 1.0]],
            [[0.2, 1.0], [np.inf, 1.0]],
            [[0.2, 1.0], [0.8, 1.0]],
            [[0.2, 1.0], [0.8, 1.0]],
            [[0.5, 1.0], [0.5, 1.0]],
            [[0.1, 0.0], [0.1, 0.5]],
        ])
        weights = np.array([
            [0.5, 0.5], [0.5, 0.5], [0.0, 1.0], [0.5, 0.6], [0.5, 0.5], [0.3, 0.7],
        ])
        valid = valid_measures(atoms, weights)
        assert valid.tolist() == [True, False, False, False, False, True]
        assert valid.tolist() == [
            measure_fault(a, w) is None for a, w in zip(atoms, weights)
        ]

    def test_single_atom_rho_inf(self):
        G = MixingMeasure(np.array([[1.0, 2.0]]), np.array([1.0]))
        assert G.rho == np.inf

    def test_overflowing_gap_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            G = MixingMeasure([[1e200], [-1e200]], [0.5, 0.5])
            assert G.rho == np.inf

    def test_json_round_trip(self):
        G = two_atom([[0.2, 1.0], [0.8, -1.0]], [0.3, 0.7])
        G2 = MixingMeasure.from_json(G.to_json())
        assert np.array_equal(G.atoms, G2.atoms)
        assert np.array_equal(G.weights, G2.weights)

    def test_non_numeric_weights_rejected(self):
        with pytest.raises(InvalidMeasure, match="weights"):
            MixingMeasure([[0.1], [0.2]], ["a", "b"])

    @pytest.mark.parametrize(
        "text, fault",
        [
            ('{"atoms": [[0.1], [0.2]]}', "weights"),
            ('{"atoms": [[0.1], [0.2]], "weights": [0.5', "delimiter"),
            ("[[0.1], [0.2]]", "list indices"),
            ({"weights": [1.0]}, "atoms"),
        ],
    )
    def test_from_json_refuses_a_malformed_document(self, text, fault):
        with pytest.raises(InvalidMeasure, match="atoms and weights") as err:
            MixingMeasure.from_json(text)
        assert fault in str(err.value)

    def test_measures_compare_by_identity(self):
        G = MixingMeasure([[0.1], [0.2]], [0.5, 0.5])
        H = MixingMeasure([[0.1], [0.2]], [0.5, 0.5])
        assert G == G
        assert G != H
        assert len({G, H}) == 2


class TestDistanceDN:
    def test_identity_is_zero(self, rng):
        G = random_measure(rng, 4, 2)
        assert distance_DN(G, G, 3.0) == 0.0

    def test_weight_shift_spot_value(self):
        # swap costs sqrt(9)*2*0.6 + 0.4, identity matching costs 0.4
        G = two_atom([0.2, 0.8], [0.5, 0.5])
        G2 = two_atom([0.2, 0.8], [0.3, 0.7])
        assert distance_DN(G, G2, 9) == pytest.approx(0.4, abs=1e-15)

    def test_matches_brute_force_k5(self, rng):
        for _ in range(25):
            G = random_measure(rng, 5, 2)
            G2 = random_measure(rng, 5, 2)
            N = float(rng.uniform(0.5, 20))
            assert distance_DN(G, G2, N) == pytest.approx(
                brute_force_DN(G, G2, N), abs=1e-12
            )

    def test_symmetry(self, rng):
        G = random_measure(rng, 4, 3)
        G2 = random_measure(rng, 4, 3)
        assert distance_DN(G, G2, 2.5) == pytest.approx(
            distance_DN(G2, G, 2.5), abs=1e-12
        )

    def test_real_valued_N(self):
        G = two_atom([0.2, 0.8], [0.5, 0.5])
        G2 = two_atom([0.25, 0.8], [0.5, 0.5])
        assert distance_DN(G, G2, 2.25) == pytest.approx(1.5 * 0.05)

    def test_mismatched_k(self):
        G = two_atom([0.2, 0.8], [0.5, 0.5])
        H = MixingMeasure(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(MismatchedSupportSize):
            distance_DN(G, H, 1)

    def test_invalid_N(self):
        G = two_atom([0.2, 0.8], [0.5, 0.5])
        with pytest.raises(InvalidParameter):
            distance_DN(G, G, 0)


BAD_ORDERS = [np.nan, np.inf, -np.inf, "2", True, None]


class TestOrderArguments:
    G = two_atom([0.2, 0.8], [0.5, 0.5])
    G2 = two_atom([0.3, 0.6], [0.4, 0.6])

    @pytest.mark.parametrize("value", BAD_ORDERS + [0, -1.0])
    def test_DN_refuses(self, value):
        with pytest.raises(InvalidParameter, match="N must be a finite real > 0"):
            distance_DN(self.G, self.G2, value)

    @pytest.mark.parametrize("value", BAD_ORDERS + [0.5])
    def test_Dr1r2_refuses(self, value):
        with pytest.raises(InvalidParameter, match="r1 must be a finite real >= 1"):
            distance_Dr1r2(self.G, self.G2, value, 1)
        with pytest.raises(InvalidParameter, match="r2 must be a finite real >= 1"):
            distance_Dr1r2(self.G, self.G2, 1, value)

    @pytest.mark.parametrize("value", BAD_ORDERS + [0.5])
    def test_wasserstein_refuses(self, value):
        with pytest.raises(InvalidParameter, match="p must be a finite real >= 1"):
            wasserstein(self.G, self.G2, value)

    def test_numpy_and_integer_orders_accepted(self):
        assert distance_DN(self.G, self.G2, np.float64(4.0)) == distance_DN(
            self.G, self.G2, 4
        )
        assert distance_Dr1r2(self.G, self.G2, np.int64(2), 1) == distance_Dr1r2(
            self.G, self.G2, 2.0, 1.0
        )
        assert wasserstein(self.G, self.G2, np.int64(2)) == wasserstein(
            self.G, self.G2, 2.0
        )

    def test_wasserstein_refuses_an_overflowing_cost(self):
        G = two_atom([0.0, 1e100], [0.5, 0.5])
        G2 = two_atom([0.0, -1e100], [0.5, 0.5])
        with pytest.raises(InvalidParameter, match="overflows"):
            wasserstein(G, G2, 4)

    @pytest.mark.parametrize(
        "distance, scale",
        [
            (lambda G, H: distance_DN(G, H, 1), 1e200),
            (lambda G, H: distance_Dr1r2(G, H, 4, 1), 1e100),
            (atom_and_weight_distances, 1e200),
            (optimal_matching, 1e200),
        ],
    )
    def test_matching_refuses_an_overflowing_cost(self, distance, scale):
        G = MixingMeasure([[scale]], [1.0])
        H = MixingMeasure([[-scale]], [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match="overflows"):
                distance(G, H)

    def test_wasserstein_refuses_a_total_that_could_overflow(self):
        # Largest cost 1.69e308: finite, but twice it is not.
        G = MixingMeasure([[0.0], [1.3e154], [2.0]], [0.3, 0.4, 0.3])
        G2 = two_atom([1.3e154, 1.0], [0.5, 0.5])
        with pytest.raises(InvalidParameter, match="overflows"):
            wasserstein(G, G2, 2)

    def test_huge_finite_costs_are_solved(self):
        # Costs near 7e307 alternate along the starting tree, so potentials
        # summed in the costs' own units would overflow to inf.
        A = np.sqrt(np.finfo(float).max / 2.6)
        d = 0.01 * A
        G = MixingMeasure([[0.0], [A], [2 * d], [A + 2 * d]], np.full(4, 0.25))
        G2 = MixingMeasure([[A + d], [d], [A + 3 * d], [3 * d]], np.full(4, 0.25))
        expected = quantile_wasserstein(G, G2, 2)
        assert wasserstein(G, G2, 2) == pytest.approx(expected, rel=1e-12)


def linprog_wasserstein(G, G2, p):
    """W_p from scipy's LP solver on the transportation polytope, as an
    independent reference for the transportation simplex."""
    diff = G.atoms[:, None, :] - G2.atoms[None, :, :]
    cost = np.sqrt((diff**2).sum(axis=2)) ** p
    k, k2 = cost.shape
    rows = np.kron(np.eye(k), np.ones((1, k2)))
    cols = np.kron(np.ones((1, k)), np.eye(k2))
    res = linprog(
        cost.ravel(),
        A_eq=np.vstack([rows, cols]),
        b_eq=np.concatenate([G.weights, G2.weights]),
        bounds=(0, None),
        method="highs",
    )
    assert res.success
    return max(res.fun, 0.0) ** (1.0 / p)


def quantile_wasserstein(G, G2, p):
    """W_p on the line from the monotone coupling: the integral over t in
    (0, 1) of |F^-1(t) - F2^-1(t)|^p, which is optimal for every p >= 1."""
    x, y = G.atoms[:, 0], G2.atoms[:, 0]
    order, order2 = np.argsort(x), np.argsort(y)
    cum, cum2 = np.cumsum(G.weights[order]), np.cumsum(G2.weights[order2])
    top = min(cum[-1], cum2[-1])
    t = np.unique(np.clip(np.concatenate([[0.0], cum, cum2]), 0.0, top))
    mid = (t[:-1] + t[1:]) / 2
    quantile = x[order][np.searchsorted(cum, mid)]
    quantile2 = y[order2][np.searchsorted(cum2, mid)]
    return float((np.diff(t) * np.abs(quantile - quantile2) ** p).sum()) ** (1.0 / p)


class TestWasserstein:
    def test_point_masses(self):
        a = MixingMeasure(np.array([[0.0]]), np.array([1.0]))
        b = MixingMeasure(np.array([[1.0]]), np.array([1.0]))
        assert wasserstein(a, b, 1) == pytest.approx(1.0)

    def test_weight_shift_vertex(self):
        # only 0.2 mass moves across a unit gap
        G = two_atom([0.0, 1.0], [0.5, 0.5])
        G2 = two_atom([0.0, 1.0], [0.3, 0.7])
        assert wasserstein(G, G2, 1) == pytest.approx(0.2, abs=1e-9)

    def test_identity_zero(self, rng):
        measures = [
            random_measure(rng, 3, 2),
            random_measure(rng, 7, 1),
            MixingMeasure(rng.uniform(size=(4, 3)), np.full(4, 0.25)),
        ]
        for G in measures:
            for p in (1, 1.5, 2, 3):
                assert wasserstein(G, G, p) == 0.0

    def test_unequal_atom_counts(self):
        G = two_atom([0.0, 1.0], [0.5, 0.5])
        H = MixingMeasure(np.array([[0.5]]), np.array([1.0]))
        assert wasserstein(G, H, 1) == pytest.approx(0.5, abs=1e-9)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            A = random_measure(rng, 3, 2)
            B = random_measure(rng, 3, 2)
            C = random_measure(rng, 3, 2)
            ab = wasserstein(A, B, 1)
            bc = wasserstein(B, C, 1)
            ac = wasserstein(A, C, 1)
            assert ac <= ab + bc + 1e-9

    # (k, k2, q, weights): "random" draws both weight vectors, "uniform"
    # gives both uniform weights and "shared" gives the second measure the
    # first one's weights; the last two force north-west-corner ties.
    SHAPES = [
        (3, 5, 2, "random"),
        (6, 2, 1, "random"),
        (1, 4, 2, "random"),
        (4, 1, 3, "random"),
        (1, 1, 2, "random"),
        (5, 5, 3, "random"),
        (8, 7, 3, "random"),
        (4, 2, 2, "uniform"),
        (6, 6, 1, "uniform"),
        (3, 6, 3, "uniform"),
        (5, 5, 2, "shared"),
        (7, 7, 3, "shared"),
    ]

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    @pytest.mark.parametrize("k, k2, q, weights", SHAPES)
    def test_matches_linear_program(self, p, k, k2, q, weights):
        rng = np.random.default_rng([k, k2, q, int(2 * p)])
        for _ in range(5):
            G, G2 = random_measure(rng, k, q), random_measure(rng, k2, q)
            if weights == "uniform":
                G = MixingMeasure(G.atoms, np.full(k, 1.0 / k))
                G2 = MixingMeasure(G2.atoms, np.full(k2, 1.0 / k2))
            elif weights == "shared":
                G2 = MixingMeasure(G2.atoms, G.weights)
            expected = linprog_wasserstein(G, G2, p)
            assert wasserstein(G, G2, p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    def test_line_matches_monotone_coupling(self, rng, p):
        for k, k2 in [(1, 3), (4, 4), (7, 5), (8, 8)]:
            G, G2 = random_measure(rng, k, 1), random_measure(rng, k2, 1)
            expected = quantile_wasserstein(G, G2, p)
            assert wasserstein(G, G2, p) == pytest.approx(expected, rel=1e-12)
            G2 = MixingMeasure(G2.atoms, np.full(k2, 1.0 / k2))
            expected = quantile_wasserstein(G, G2, p)
            assert wasserstein(G, G2, p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-6, 1e3])
    def test_scales_with_the_atoms(self, rng, scale):
        for p in (1, 2, 3):
            G, G2 = random_measure(rng, 6, 2), random_measure(rng, 5, 2)
            scaled = MixingMeasure(scale * G.atoms, G.weights)
            scaled2 = MixingMeasure(scale * G2.atoms, G2.weights)
            assert wasserstein(scaled, scaled2, p) == pytest.approx(
                scale * wasserstein(G, G2, p), rel=1e-12
            )

    def test_plan_is_a_feasible_vertex(self, rng):
        for k, k2 in [(1, 5), (4, 4), (6, 3), (8, 8)]:
            for uniform in (False, True):
                G, G2 = random_measure(rng, k, 2), random_measure(rng, k2, 2)
                if uniform:
                    G2 = MixingMeasure(G2.atoms, np.full(k2, 1.0 / k2))
                cost = np.linalg.norm(G.atoms[:, None] - G2.atoms[None], axis=2)
                plan = _transport_plan(cost, G.weights, G2.weights)
                assert (plan >= 0.0).all()
                assert np.abs(plan.sum(axis=1) - G.weights).max() <= 1e-15
                assert np.abs(plan.sum(axis=0) - G2.weights).max() <= 1e-15
                assert np.count_nonzero(plan) <= k + k2 - 1

    def test_large_degenerate_problems_end(self):
        # Uniform weights on a lattice make most pivots move no flow and
        # many reduced costs tie; a solver that cycled would not return.
        rng = np.random.default_rng(40)
        lattice = np.stack(np.meshgrid(np.arange(8), np.arange(5)), -1).reshape(-1, 2)
        uniform = np.full(40, 1.0 / 40)
        pairs = [
            (random_measure(rng, 40, 2), random_measure(rng, 40, 2)),
            (
                MixingMeasure(lattice, uniform),
                MixingMeasure(lattice[rng.permutation(40)] + 1.0, uniform),
            ),
        ]
        for G, G2 in pairs:
            for p in (1, 2):
                expected = linprog_wasserstein(G, G2, p)
                assert wasserstein(G, G2, p) == pytest.approx(expected, rel=1e-12)


class TestDr1r2:
    def test_identity_zero(self, rng):
        G = random_measure(rng, 3, 1)
        assert distance_Dr1r2(G, G, 2, 1) == 0.0

    def test_weight_shift_spot(self):
        G = two_atom([0.2, 0.8], [0.5, 0.5])
        G2 = two_atom([0.2, 0.8], [0.3, 0.7])
        assert distance_Dr1r2(G, G2, 2, 1) == pytest.approx(0.4, abs=1e-15)

    def test_matches_brute_force_k4(self, rng):
        for _ in range(25):
            G = random_measure(rng, 4, 2)
            G2 = random_measure(rng, 4, 2)
            r1 = float(rng.uniform(1, 3))
            r2 = float(rng.uniform(1, 3))
            assert distance_Dr1r2(G, G2, r1, r2) == pytest.approx(
                brute_force_Dr1r2(G, G2, r1, r2), abs=1e-12
            )

    def test_agrees_with_DN_at_one(self, rng):
        G = random_measure(rng, 4, 2)
        G2 = random_measure(rng, 4, 2)
        assert distance_Dr1r2(G, G2, 1, 1) == distance_DN(G, G2, 1)


class TestAtomWeightDistances:
    def test_identity(self, rng):
        G = random_measure(rng, 3, 2)
        assert atom_and_weight_distances(G, G) == (0.0, 0.0)

    def test_weight_shift(self):
        G = two_atom([0.2, 0.8], [0.5, 0.5])
        G2 = two_atom([0.2, 0.8], [0.3, 0.7])
        d_theta, d_p = atom_and_weight_distances(G, G2)
        assert d_theta == pytest.approx(0.0, abs=1e-15)
        assert d_p == pytest.approx(0.4, abs=1e-15)

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            G = random_measure(rng, 5, 2)
            G2 = random_measure(rng, 5, 2)
            got = atom_and_weight_distances(G, G2)
            want = brute_force_atom_weight(G, G2)
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_lower_bounds_DN(self, rng):
        for _ in range(50):
            G = random_measure(rng, 4, 2)
            G2 = random_measure(rng, 4, 2)
            N = float(rng.uniform(1, 25))
            d_theta, d_p = atom_and_weight_distances(G, G2)
            assert distance_DN(G, G2, N) >= np.sqrt(N) * d_theta + d_p - 1e-9


class TestOptimalMatching:
    def test_near_identity_unique(self):
        G0 = two_atom([0.2, 0.8], [0.5, 0.5])
        G = two_atom([0.25, 0.78], [0.5, 0.5])
        res = optimal_matching(G, G0)
        assert res.permutation == (0, 1)
        assert res.unique
        assert res.cost == pytest.approx(0.07, abs=1e-12)

    def test_swapped_storage_order(self):
        G0 = two_atom([0.2, 0.8], [0.4, 0.6])
        G = two_atom([0.8, 0.2], [0.6, 0.4])
        res = optimal_matching(G, G0)
        assert res.permutation == (1, 0)
        assert res.cost == pytest.approx(0.0, abs=1e-15)

    def test_stable_across_exponents(self, rng):
        # within the half-gap radius one matching is optimal for every length
        for _ in range(20):
            G0 = random_measure(rng, 4, 2, min_gap=0.2)
            delta = rng.uniform(-0.01, 0.01, size=G0.atoms.shape)
            G = MixingMeasure(G0.atoms + delta, G0.weights)
            res = optimal_matching(G, G0)
            if not res.unique:
                continue
            for r in (1, 2, 4, 16):
                best, best_tau = np.inf, None
                import itertools

                for tau in itertools.permutations(range(4)):
                    tot = sum(
                        np.sqrt(r) * np.linalg.norm(G.atoms[t] - G0.atoms[i])
                        + abs(G.weights[t] - G0.weights[i])
                        for i, t in enumerate(tau)
                    )
                    if tot < best:
                        best, best_tau = tot, tau
                assert best_tau == res.permutation

    def test_tie_flagged(self):
        # symmetric cross: all four atom distances equal, both matchings tie
        G0 = MixingMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
        G = MixingMeasure(np.array([[0.5, 0.3], [0.5, -0.3]]), np.array([0.5, 0.5]))
        res = optimal_matching(G, G0)
        assert not res.unique
        assert res.permutation == (0, 1)

    def test_cost_matches_distance(self, rng):
        G = random_measure(rng, 5, 2)
        G0 = random_measure(rng, 5, 2)
        res = optimal_matching(G, G0)
        assert res.cost == pytest.approx(distance_DN(G, G0, 1), abs=1e-12)


def lsa_value(cost):
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].sum()


class TestLeastMatchings:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_scan_equals_brute_force_and_the_assignment_solver(self, rng, k):
        for _ in range(5):
            cost = rng.random((k, k)) * 10.0 ** rng.uniform(-3, 3, (k, k))
            value, perm = least_matchings(cost)
            totals = {
                p: sum(cost[i, j] for i, j in enumerate(p))
                for p in itertools.permutations(range(k))
            }
            best = min(totals, key=totals.get)
            assert tuple(perm.tolist()) == best
            assert value == totals[best] == lsa_value(cost)

    def test_ties_give_the_lexicographically_smallest_optimum(self):
        # (1, 0, 2) and (2, 1, 0) both cost 0.
        cost = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        value, perm = least_matchings(cost)
        assert value == 0.0
        assert perm.tolist() == [1, 0, 2]

    @pytest.mark.parametrize("k", [8, 12, 20, 40])
    def test_simplex_above_the_scan_equals_the_assignment_solver(self, rng, k):
        for trial in range(8):
            cost = rng.random((k, k))
            if trial % 2:
                cost = np.round(cost * 8.0) / 8.0  # exact ties
            value, perm = least_matchings(cost)
            assert sorted(perm.tolist()) == list(range(k))
            assert value == lsa_value(cost)
            assert cost[np.arange(k), perm].sum() == value

    @pytest.mark.parametrize("k", [3, 8])
    def test_a_batch_equals_single_calls(self, rng, k):
        costs = rng.random((6, k, k))
        values, perms = least_matchings(costs)
        singles = [least_matchings(cost) for cost in costs]
        assert values.tolist() == [float(v) for v, _ in singles]
        assert perms.tolist() == [p.tolist() for _, p in singles]


class TestCanonicalize:
    def test_sorted_unchanged(self):
        G = two_atom([0.2, 0.8], [0.3, 0.7])
        C = canonicalize(G)
        assert np.array_equal(C.atoms, G.atoms)
        assert np.array_equal(C.weights, G.weights)

    def test_two_atom_swap(self):
        G = two_atom([0.8, 0.2], [0.3, 0.7])
        C = canonicalize(G)
        assert C.atoms[0, 0] == 0.2
        assert C.weights[0] == 0.7

    def test_idempotent(self, rng):
        for _ in range(20):
            G = random_measure(rng, 5, 3)
            once = canonicalize(G)
            twice = canonicalize(once)
            assert np.array_equal(once.atoms, twice.atoms)
            assert np.array_equal(once.weights, twice.weights)

    def test_lexicographic_on_higher_dims(self):
        G = MixingMeasure(
            np.array([[1.0, 0.5], [1.0, 0.2], [0.5, 9.0]]),
            np.array([0.2, 0.3, 0.5]),
        )
        C = canonicalize(G)
        assert np.array_equal(C.atoms, np.array([[0.5, 9.0], [1.0, 0.2], [1.0, 0.5]]))


class TestMetricProperties:
    def test_triangle_inequality_DN(self, rng):
        for _ in range(50):
            A = random_measure(rng, 3, 2)
            B = random_measure(rng, 3, 2)
            C = random_measure(rng, 3, 2)
            assert distance_DN(A, C, 1) <= (
                distance_DN(A, B, 1) + distance_DN(B, C, 1) + 1e-9
            )

    def test_wasserstein_vs_D1_bound(self, rng):
        # inside the unit box: W1 <= max(1, diam/2) * D1
        diam = np.sqrt(2.0)
        factor = max(1.0, diam / 2.0)
        for _ in range(50):
            G = random_measure(rng, 3, 2)
            G2 = random_measure(rng, 3, 2)
            assert wasserstein(G, G2, 1) <= factor * distance_DN(G, G2, 1) + 1e-9
