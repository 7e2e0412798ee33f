"""Discrete mixing measures and the distances between them.

A mixing measure is a finite collection of weighted atoms in R^q. All
distances that match atoms across two measures minimize over permutations,
exactly, with least_matchings; the optimal-transport distance is solved by
an exact transportation simplex.
"""

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidMeasure,
    InvalidParameter,
    MismatchedSupportSize,
    check_real,
)

WEIGHT_TOL = 1e-12
TIE_TOL = 1e-12
PERMUTATION_MAX = 7
# least_matchings gathers at most this many costs per block of a stack.
SCAN_BLOCK_ENTRIES = 2**22
TRANSPORT_TOL = 1e-12


def _min_gap(atoms):
    """Smallest Euclidean gap between rows of (..., k, q) atoms per leading
    index; inf for one row or an overflowing gap, callers ignoring overflow."""
    diff = atoms[..., :, None, :] - atoms[..., None, :, :]
    dists = np.sqrt((diff**2).sum(axis=-1))
    diagonal = np.arange(atoms.shape[-2])
    dists[..., diagonal, diagonal] = np.inf
    return dists.min(axis=(-2, -1))


def _invariants(atoms, weights):
    """The invariants of a measure, checked in order over (..., k, q) atoms
    and (..., k) weights: each as (holds, message), with holds a boolean
    over the leading axes. A message may name the weight sum as
    ``{total!r}``."""
    yield np.isfinite(atoms).all(axis=(-2, -1)), "atom coordinates must be finite"
    yield (weights > 0).all(axis=-1), "weights must be strictly positive"
    yield (
        np.abs(weights.sum(axis=-1) - 1.0) <= WEIGHT_TOL,
        f"weights must sum to 1 within {WEIGHT_TOL}; got {{total!r}}",
    )
    yield _min_gap(atoms) > 0.0, "atoms must be pairwise distinct"


def measure_fault(atoms, weights):
    """The first violated invariant of (k, q) atoms and (k,) weights as a
    message, or None for a valid measure: finite atoms, positive weights
    summing to 1 within WEIGHT_TOL, pairwise distinct atoms."""
    with np.errstate(over="ignore"):
        for holds, message in _invariants(atoms, weights):
            if not holds:
                return message.format(total=float(weights.sum()))
    return None


def valid_measures(atoms, weights):
    """Which measures of a stack, (..., k, q) atoms with (..., k) weights,
    hold every invariant of ``measure_fault``: a boolean over the leading
    axes."""
    valid = np.ones(atoms.shape[:-2], dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        for holds, _ in _invariants(atoms, weights):
            valid &= holds
    return valid


@lru_cache(maxsize=None)
def permutation_table(k):
    """Every permutation of range(k) as a read-only (k!, k) array, rows in
    lexicographic order. Callers keep k <= PERMUTATION_MAX, which bounds
    the cache."""
    table = np.array(list(itertools.permutations(range(k))))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _permutation_cells(k):
    """Flat indices into a k x k matrix as a read-only (k, k!) array: entry
    [i, p] is row i's cell under permutation p of permutation_table(k)."""
    cells = np.arange(k)[:, None] * k + permutation_table(k).T
    cells.flags.writeable = False
    return cells


def permutation_totals(cost, reduce=np.add):
    """Every matching's total of (..., k, k) costs, k <= PERMUTATION_MAX: an
    (..., k!) array whose entry p reduces cost[..., i, table[p, i]] over the
    rows i in order, table = permutation_table(k), with the binary ufunc
    reduce."""
    k = cost.shape[-1]
    flat = cost.reshape(cost.shape[:-2] + (k * k,))
    cells = flat.take(_permutation_cells(k), axis=-1)
    total = cells[..., 0, :]
    for i in range(1, k):
        total = reduce(total, cells[..., i, :])
    return total


def least_matchings(cost):
    """The least total over matchings of each (..., k, k) cost and a
    permutation attaining it: values (...) and perms (..., k), row i matched
    to column perms[..., i]. Up to PERMUTATION_MAX the permutation scan
    picks the lexicographically first optimum, in blocks of the stack that
    gather at most SCAN_BLOCK_ENTRIES costs, so a stack of any size scans in
    bounded memory. Above it the transportation simplex solves each cost at
    unit supplies, where flows stay 0 or 1 and so form a permutation, in
    about 0.3 / 0.9 / 2.5 / 13 ms at k = 8 / 12 / 20 / 40."""
    k = cost.shape[-1]
    flat = cost.reshape((-1, k, k))
    values, perms = np.empty(len(flat)), np.empty((len(flat), k), dtype=np.intp)
    if k <= PERMUTATION_MAX:
        table = permutation_table(k)
        rows = max(1, SCAN_BLOCK_ENTRIES // table.size)
        for lo in range(0, len(flat), rows):
            totals = permutation_totals(flat[lo : lo + rows])
            values[lo : lo + rows] = totals.min(axis=-1)
            perms[lo : lo + rows] = table[totals.argmin(axis=-1)]
    else:
        ones = np.ones(k)
        for t, square in enumerate(flat):
            perms[t] = _transport_plan(square, ones, ones).argmax(axis=1)
            values[t] = square[np.arange(k), perms[t]].sum()
    return values.reshape(cost.shape[:-2]), perms.reshape(cost.shape[:-1])


def canonical_order(atoms):
    """Indices that sort atoms of shape (..., k, q) lexicographically by
    coordinates along the k axis."""
    keys = tuple(atoms[..., col] for col in range(atoms.shape[-1] - 1, -1, -1))
    return np.lexsort(keys, axis=-1)


@dataclass(frozen=True, eq=False)
class MixingMeasure:
    """k weighted atoms in R^q with strictly positive weights summing to 1.
    Measures compare by identity, as arrays have no single truth value."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        try:
            atoms = np.atleast_1d(np.asarray(self.atoms, dtype=float))
            weights = np.asarray(self.weights, dtype=float).reshape(-1)
        except (TypeError, ValueError) as err:  # ragged or non-numeric input
            raise InvalidMeasure(f"atoms and weights must be numeric: {err}") from err
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise InvalidMeasure("atoms must be a k x q array with k >= 1")
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
        with np.errstate(over="ignore"):
            return float(_min_gap(self.atoms))

    def to_json(self):
        return json.dumps(
            {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}
        )

    @staticmethod
    def from_json(text):
        """The measure of a JSON object, or of its parsed dict, with fields
        atoms and weights."""
        try:
            doc = json.loads(text) if isinstance(text, str) else text
            atoms, weights = doc["atoms"], doc["weights"]
        except (ValueError, KeyError, TypeError) as err:
            message = f"a measure is a JSON object with atoms and weights: {err!r}"
            raise InvalidMeasure(message) from err
        return MixingMeasure(atoms, weights)


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


def _finite_cost(cost):
    """A nonnegative matching cost, refused when its sum overflows: every
    matching total is below it. Callers build it with overflow warnings off."""
    if not np.isfinite(cost.sum()):
        raise InvalidParameter("the matching cost overflows")
    return cost


def _assignment_min(cost):
    """Least matching total of a nonnegative cost matrix that does not overflow."""
    return float(least_matchings(_finite_cost(cost))[0])


@np.errstate(over="ignore")
def distance_DN(G, G2, N):
    """Sequence-length metric: min over matchings of sqrt(N) * atom distance
    plus weight distance, summed over atoms. N may be any positive real."""
    _check_same_k(G, G2)
    root_n = np.sqrt(check_real("N", N, 0, strict=True))
    cost = root_n * _atom_dist_matrix(G, G2) + _weight_diff_matrix(G, G2)
    return _assignment_min(cost)


@np.errstate(over="ignore")
def distance_Dr1r2(G, G2, r1, r2):
    """Min over matchings of sum of atom distance^r1 + weight distance^r2."""
    _check_same_k(G, G2)
    r1 = check_real("r1", r1, 1)
    r2 = check_real("r2", r2, 1)
    cost = _atom_dist_matrix(G, G2) ** r1 + _weight_diff_matrix(G, G2) ** r2
    return _assignment_min(cost)


@np.errstate(over="ignore")
def atom_and_weight_distances(G, G2):
    """Independently matched atom-only and weight-only distances."""
    _check_same_k(G, G2)
    d_theta = _assignment_min(_atom_dist_matrix(G, G2))
    return d_theta, _assignment_min(_weight_diff_matrix(G, G2))


def _transport_plan(cost, supply, demand):
    """An optimal flow x >= 0 of min <cost, x> with row sums supply and
    column sums demand, by the transportation simplex.

    The basis is a spanning tree of k + k2 - 1 cells over the row nodes
    0..k-1 and the column nodes k..k+k2-1, started by the north-west-corner
    rule. Each pass gives the tree's nodes potentials u_i + v_j = cost_ij,
    prices every cell at once, and pivots on the most negative reduced cost
    (Dantzig's rule) or, after k + k2 pivots in a row moved no flow, on the
    first negative one (Bland's rule), which cannot cycle. Under Dantzig's
    rule such runs were at most half that long on the problems tried, so the
    switch only guards against cycling. The leaving cell is the
    smallest-index cell that the pivot empties. Flows stay nonnegative: a
    pivot subtracts the smallest flow it takes from. The method prices
    costs divided by the largest one, so the potentials, signed sums of at
    most k + k2 - 1 costs, stay bounded.
    """
    k, k2 = cost.shape
    flow = [[0.0] * k2 for _ in range(k)]
    tree = [[] for _ in range(k + k2)]
    left_supply, left_demand = supply.tolist(), demand.tolist()
    i = j = 0
    while True:
        moved = min(left_supply[i], left_demand[j])
        flow[i][j] = moved
        tree[i].append(k + j)
        tree[k + j].append(i)
        left_supply[i] -= moved
        left_demand[j] -= moved
        if i == k - 1 and j == k2 - 1:
            break
        # On a tie only the row advances, so a zero-flow cell joins the tree.
        if j == k2 - 1 or (i < k - 1 and left_supply[i] == 0.0):
            i += 1
        else:
            j += 1

    top = float(cost.max())
    scaled = cost / top if top > 0.0 else cost
    costs = scaled.tolist()
    degenerate = 0
    while True:
        potential = [0.0] * (k + k2)
        parent = [-1] * (k + k2)
        depth = [0] * (k + k2)
        order = [0]
        for node in order:
            for other in tree[node]:
                if other != parent[node]:
                    parent[other] = node
                    depth[other] = depth[node] + 1
                    row, col = (node, other) if node < k else (other, node)
                    potential[other] = costs[row][col - k] - potential[node]
                    order.append(other)
        u, v = np.array(potential[:k]), np.array(potential[k:])
        reduced = (scaled - u[:, None] - v[None, :]).ravel()
        if degenerate < k + k2:
            entering = int(reduced.argmin())
            if reduced[entering] >= -TRANSPORT_TOL:
                break
        else:
            improving = np.flatnonzero(reduced < -TRANSPORT_TOL)
            if improving.size == 0:
                break
            entering = int(improving[0])
        i, j = divmod(entering, k2)

        # The cycle is the entering cell and the tree path from column j to
        # row i; along it the flows alternate rising and falling.
        rises, falls = [(i, j)], []
        a, b = i, k + j
        while a != b:
            if depth[a] >= depth[b]:
                node, a = a, parent[a]
                falling = node < k
            else:
                node, b = b, parent[b]
                falling = node >= k
            other = parent[node]
            row, col = (node, other) if node < k else (other, node)
            (falls if falling else rises).append((row, col - k))
        theta = min(flow[r][c] for r, c in falls)
        leaving = min(r * k2 + c for r, c in falls if flow[r][c] == theta)
        for r, c in rises:
            flow[r][c] += theta
        for r, c in falls:
            flow[r][c] -= theta
        r, c = divmod(leaving, k2)
        tree[r].remove(k + c)
        tree[k + c].remove(r)
        tree[i].append(k + j)
        tree[k + j].append(i)
        degenerate = degenerate + 1 if theta == 0.0 else 0
    return np.array(flow)


def wasserstein(G, G2, p=1.0):
    """Order-p optimal transport distance with Euclidean ground cost.

    Atom counts may differ. The transportation problem between the two
    weight vectors is solved exactly by the transportation simplex of
    ``_transport_plan``. It is built for small supports: measured at
    k = k2 <= 40, it takes 0.03 (k = 3) to about 0.75 (k = 40) of a
    general LP solver's time, a share that grows with k."""
    p = check_real("p", p, 1)
    with np.errstate(over="ignore"):
        cost = _atom_dist_matrix(G, G2) ** p
        # The total is at most the largest cost times a mass of 1 + rounding.
        bounded = np.isfinite(2.0 * cost.max())
    if not bounded:
        raise InvalidParameter(f"the order-{p!r} transport cost overflows")
    flow = _transport_plan(cost, G.weights, G2.weights)
    return float(max((cost * flow).sum(), 0.0)) ** (1.0 / p)


@np.errstate(over="ignore")
def optimal_matching(G, G0):
    """Best matching of G's atoms to G0's under the N=1 metric.

    Up to PERMUTATION_MAX atoms every permutation is scanned: the result is
    the lexicographically smallest permutation within TIE_TOL of the least
    total, unique=True when no other one is. Above it unique=True only by
    the half-gap certificate (cost < rho(G0)/2, which also makes the
    matching optimal for every sequence length).
    """
    _check_same_k(G, G0)
    cost = _finite_cost(_atom_dist_matrix(G0, G) + _weight_diff_matrix(G0, G))
    if G.k > PERMUTATION_MAX:
        value, perm = least_matchings(cost)
        unique = value < G0.rho / 2.0 - TIE_TOL
    else:
        totals = permutation_totals(cost)
        value = totals.min()
        ties = np.flatnonzero(totals - value <= TIE_TOL)
        perm, unique = permutation_table(G.k)[ties[0]], ties.size == 1
    return MatchingResult(tuple(perm.tolist()), float(value), bool(unique))


def canonicalize(G):
    """Reorder atoms lexicographically by coordinates; idempotent."""
    order = canonical_order(G.atoms)
    return MixingMeasure(G.atoms[order], G.weights[order])
