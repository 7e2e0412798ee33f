"""Discrete mixing measures and the distances between them.

A mixing measure is a finite collection of weighted atoms in R^q. All
distances that match atoms across two measures minimize over permutations;
the minimization is solved exactly with a linear assignment solver, and the
optimal-transport distance with an exact transportation LP.
"""

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from .errors import InvalidMeasure, InvalidParameter, MismatchedSupportSize

WEIGHT_TOL = 1e-12
TIE_TOL = 1e-12
PERMUTATION_MAX = 7


def _min_gap(atoms):
    """Smallest pairwise Euclidean gap between the rows of a (k, q) array;
    inf for a single row."""
    diff = atoms[:, None, :] - atoms[None, :, :]
    dists = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dists, np.inf)
    return float(dists.min())


def measure_fault(atoms, weights):
    """The first violated invariant of (k, q) atoms and (k,) weights as a
    message, or None for a valid measure: finite atoms, positive weights
    summing to 1 within WEIGHT_TOL, pairwise distinct atoms."""
    if not np.all(np.isfinite(atoms)):
        return "atom coordinates must be finite"
    if not np.all(weights > 0):
        return "weights must be strictly positive"
    if abs(weights.sum() - 1.0) > WEIGHT_TOL:
        return f"weights must sum to 1 within {WEIGHT_TOL}; got {weights.sum()!r}"
    if _min_gap(atoms) <= 0.0:
        return "atoms must be pairwise distinct"
    return None


@lru_cache(maxsize=None)
def permutation_table(k):
    """Every permutation of range(k) as a read-only (k!, k) array, rows in
    lexicographic order. Callers keep k <= PERMUTATION_MAX, which bounds
    the cache."""
    table = np.array(list(itertools.permutations(range(k))))
    table.flags.writeable = False
    return table


def canonical_order(atoms):
    """Indices that sort atoms of shape (..., k, q) lexicographically by
    coordinates along the k axis."""
    keys = tuple(atoms[..., col] for col in range(atoms.shape[-1] - 1, -1, -1))
    return np.lexsort(keys, axis=-1)


@dataclass(frozen=True)
class MixingMeasure:
    """k weighted atoms in R^q with strictly positive weights summing to 1."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_1d(np.asarray(self.atoms, dtype=float))
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise InvalidMeasure("atoms must be a k x q array with k >= 1")
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if weights.shape[0] != atoms.shape[0]:
            raise InvalidMeasure("weights length must equal the atom count")
        fault = measure_fault(atoms, weights)
        if fault is not None:
            raise InvalidMeasure(fault)
        atoms = atoms.copy()
        weights = weights.copy()
        atoms.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def k(self):
        return self.atoms.shape[0]

    @property
    def q(self):
        return self.atoms.shape[1]

    @property
    def rho(self):
        """Minimum pairwise atom gap (inf for a single atom)."""
        return _min_gap(self.atoms)

    def to_json(self):
        return json.dumps(
            {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}
        )

    @staticmethod
    def from_json(text):
        doc = json.loads(text) if isinstance(text, str) else text
        return MixingMeasure(np.asarray(doc["atoms"]), np.asarray(doc["weights"]))


@dataclass(frozen=True)
class MatchingResult:
    """An atom matching: permutation, its cost, and a uniqueness flag.

    permutation[i] is the index of the first measure's atom matched to
    atom i of the reference measure.
    """

    permutation: tuple
    cost: float
    unique: bool

    def __post_init__(self):
        k = len(self.permutation)
        if sorted(self.permutation) != list(range(k)):
            raise InvalidParameter("permutation must be a bijection on 0..k-1")


def _check_same_k(G, G2):
    if G.k != G2.k:
        raise MismatchedSupportSize(f"atom counts differ: {G.k} vs {G2.k}")


def _atom_dist_matrix(G, G2):
    """Pairwise Euclidean distances; entry [i, j] = ||theta_i - theta2_j||."""
    if G.q != G2.q:
        raise MismatchedSupportSize(f"atom dimensions differ: {G.q} vs {G2.q}")
    diff = G.atoms[:, None, :] - G2.atoms[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _weight_diff_matrix(G, G2):
    return np.abs(G.weights[:, None] - G2.weights[None, :])


def _assignment_min(cost):
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()), cols


def distance_DN(G, G2, N):
    """Sequence-length metric: min over matchings of sqrt(N) * atom distance
    plus weight distance, summed over atoms. N may be any positive real."""
    _check_same_k(G, G2)
    if not (np.isscalar(N) and N > 0):
        raise InvalidParameter("N must be a positive real")
    cost = np.sqrt(float(N)) * _atom_dist_matrix(G, G2) + _weight_diff_matrix(G, G2)
    value, _ = _assignment_min(cost)
    return value


def distance_Dr1r2(G, G2, r1, r2):
    """Min over matchings of sum of atom distance^r1 + weight distance^r2."""
    _check_same_k(G, G2)
    if r1 < 1 or r2 < 1:
        raise InvalidParameter("exponents must be >= 1")
    cost = _atom_dist_matrix(G, G2) ** r1 + _weight_diff_matrix(G, G2) ** r2
    value, _ = _assignment_min(cost)
    return value


def atom_and_weight_distances(G, G2):
    """Independently matched atom-only and weight-only distances."""
    _check_same_k(G, G2)
    d_theta, _ = _assignment_min(_atom_dist_matrix(G, G2))
    d_p, _ = _assignment_min(_weight_diff_matrix(G, G2))
    return d_theta, d_p


def wasserstein(G, G2, p=1.0):
    """Order-p optimal transport distance with Euclidean ground cost,
    solved as the exact transportation LP. Atom counts may differ."""
    if p < 1:
        raise InvalidParameter("order p must be >= 1")
    cost = _atom_dist_matrix(G, G2) ** p
    k, k2 = cost.shape
    c = cost.reshape(-1)
    A_eq = np.zeros((k + k2, k * k2))
    for i in range(k):
        A_eq[i, i * k2 : (i + 1) * k2] = 1.0
    for j in range(k2):
        A_eq[k + j, j::k2] = 1.0
    b_eq = np.concatenate([G.weights, G2.weights])
    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise InvalidParameter(f"transportation LP failed: {res.message}")
    return float(max(res.fun, 0.0)) ** (1.0 / p)


def optimal_matching(G, G0):
    """Best matching of G's atoms to G0's under the N=1 metric.

    unique=True either by the half-gap certificate (cost < rho(G0)/2, which
    also makes the matching optimal for every sequence length) or by an
    exhaustive tie scan (k <= PERMUTATION_MAX). Ties return the
    lexicographically smallest optimal permutation with unique=False.
    """
    _check_same_k(G, G0)
    cost = _atom_dist_matrix(G0, G) + _weight_diff_matrix(G0, G)
    value, perm = _assignment_min(cost)
    perm = tuple(int(i) for i in perm)
    k = G.k
    if k == 1:
        return MatchingResult((0,), value, True)
    if value < G0.rho / 2.0 - TIE_TOL:
        return MatchingResult(perm, value, True)
    if k <= PERMUTATION_MAX:
        table = permutation_table(k)
        totals = cost[np.arange(k), table].sum(axis=1)
        ties = np.flatnonzero(np.abs(totals - value) <= TIE_TOL)
        best = tuple(int(i) for i in table[ties[0]])
        return MatchingResult(best, value, ties.size == 1)
    return MatchingResult(perm, value, False)


def canonicalize(G):
    """Reorder atoms lexicographically by coordinates; idempotent."""
    order = canonical_order(G.atoms)
    return MixingMeasure(G.atoms[order], G.weights[order])
