"""Mixtures of product distributions over length-N exchangeable sequences:
densities, dataset sampling, permutation-minimized divergence upper bounds,
and divergence estimation by reduction to the law of a sufficient
statistic, then summation over a discrete support, quadrature or Monte
Carlo."""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    InvalidParameter,
    LengthMismatch,
    MismatchedSupportSize,
    QuadratureNonConvergence,
    check_integer,
)
from .kernels import (
    TAIL_EPS,
    divergence_numeric,
    logsumexp,
    mixture_divergence,
    mixture_panels,
    panel_rule,
    segment_boundaries,
)
from .measures import PERMUTATION_MAX, permutation_totals
from .rng import CHUNK, chunk_sizes, chunk_stream

MC_DEFAULT_BUDGET = 10**6
MC_MIN_BUDGET = 10**4
TENSOR_TOL = 1e-7
TENSOR_PANELS_MAX = 2048
TENSOR_BLOCK_ENTRIES = 2**20


class ProductMixtureModel:
    """Law of a length-N sequence: mixture over atoms of N-fold product
    distributions of the kernel."""

    def __init__(self, measure, kernel, N):
        self.N = check_integer("N", N, 1)
        kernel.check_theta(measure.atoms)
        self.measure = measure
        self.kernel = kernel
        # What every score reads of the measure, computed once per model.
        self._log_w = np.log(measure.weights)
        spec = kernel.expfam
        if spec is not None:
            self._eta = spec.natural(measure.atoms)
            with np.errstate(invalid="ignore", over="ignore"):
                self._offset = self._log_w - self.N * spec.log_partition(self._eta)

    def log_density(self, xbar):
        xbar = np.asarray(xbar, dtype=float).reshape(-1)
        if xbar.size != self.N:
            raise LengthMismatch(
                f"sequence length {xbar.size} does not match N = {self.N}"
            )
        return float(self.log_density_many(xbar[None, :])[0])

    def log_density_many(self, X):
        """Log densities of rows of X, an (n, N) array of sequences."""
        return self.score(self.reduce(X))

    def reduce(self, X):
        """What the density of the rows of X reads: for kernels with an
        ``expfam``, the summed statistic (n, d) and summed log-carrier (n,);
        for the others, X itself. Models that share the kernel and N share
        the reduction."""
        X = np.asarray(X, dtype=float)
        spec = self.kernel.expfam
        return X if spec is None else spec.summed(X)

    def score(self, reduced):
        """Log densities (n,) from ``reduce``'s output: with an ``expfam``,
        logsumexp over atoms of log w - N A(eta) + eta S, plus the summed
        log-carrier, at O(k) per row; otherwise the per-observation kernel
        log densities summed over the sequence."""
        if self.kernel.expfam is None:
            with np.errstate(invalid="ignore"):
                comp = self.kernel.log_density(reduced, self.measure.atoms).sum(axis=-1)
            return logsumexp(comp + self._log_w[:, None], axis=0)
        S, carrier = reduced
        return logsumexp(self._offset[:, None] + self._eta @ S.T, axis=0) + carrier

    def sample(self, count, rng):
        """Draw sequences: one latent component per sequence."""
        comps = rng.choice(self.measure.k, size=count, p=self.measure.weights)
        out = np.empty((count, self.N))
        for i in range(self.measure.k):
            rows = np.flatnonzero(comps == i)
            if rows.size:
                draws = self.kernel.sample(
                    self.measure.atoms[i], rows.size * self.N, rng
                )
                out[rows] = np.asarray(draws, dtype=float).reshape(
                    rows.size, self.N
                )
        return out


def _checked_sequence(values):
    try:
        arr = np.asarray(values, dtype=float).reshape(-1)
    except (TypeError, ValueError) as err:  # ragged or non-numeric input
        raise InvalidParameter(f"sequences must be numeric: {err}") from err
    if arr.size < 1:
        raise InvalidParameter("every sequence needs at least one value")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameter("sequence values must be finite")
    return arr


@dataclass(eq=False)
class ExchangeableDataset:
    """m sequences of per-sequence lengths; the generator seed is recorded
    when known (None for datasets loaded from disk). Datasets compare by
    identity, as measures do."""

    sequences: list
    seed: object = None

    def __post_init__(self):
        seqs = [_checked_sequence(s) for s in self.sequences]
        if not seqs:
            raise InvalidParameter("dataset needs at least one sequence")
        self.sequences = seqs

    @property
    def m(self):
        return len(self.sequences)

    @property
    def lengths(self):
        return [int(s.size) for s in self.sequences]

    @property
    def total_length(self):
        return int(sum(self.lengths))

    @property
    def mean_length(self):
        return self.total_length / self.m

    def to_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.sequences:
                fh.write(json.dumps({"seq": [float(v) for v in s]}) + "\n")

    @classmethod
    def from_jsonl(cls, path):
        """One {"seq": [numbers]} object per line; InvalidParameter names the
        path, and the 1-based line of the first bad line if any."""
        seqs = []
        with open(path) as fh:
            for number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    seq = json.loads(line)["seq"]
                    if not all(type(v) in (int, float) for v in seq):
                        raise TypeError("seq values must be numbers")
                    seqs.append(_checked_sequence(seq))
                except json.JSONDecodeError as err:
                    raise InvalidParameter(f"{path}, line {number}: {err.msg}") from err
                except KeyError as err:
                    message = f"{path}, line {number}: no field {err}"
                    raise InvalidParameter(message) from err
                except (TypeError, InvalidParameter) as err:
                    raise InvalidParameter(f"{path}, line {number}: {err}") from err
        if not seqs:
            raise InvalidParameter(f"{path}: dataset needs at least one sequence")
        return cls(sequences=seqs, seed=None)


@dataclass(frozen=True)
class DivergenceEstimate:
    """A divergence value with its provenance: exact enumeration and
    quadrature carry zero standard error."""

    value: float
    stderr: float
    method: str
    n: int

    def __post_init__(self):
        if self.method not in ("exact-enumeration", "quadrature", "monte-carlo"):
            raise InvalidParameter(f"unknown method tag {self.method!r}")
        if self.method != "monte-carlo" and self.stderr != 0.0:
            raise InvalidParameter("exact methods must report zero stderr")
        if not -1e-12 <= self.value <= 1.0 + 1e-12:
            raise InvalidParameter(f"TV/Hellinger value {self.value} outside [0, 1]")


def sample_dataset(G, kernel, lengths, rng, seed=None):
    """One latent component per sequence, then conditionally i.i.d. draws."""
    lengths = [check_integer("each entry of lengths", n, 1) for n in lengths]
    comps = rng.choice(G.k, size=len(lengths), p=G.weights)
    seqs = []
    for c, n in zip(comps, lengths):
        seqs.append(np.asarray(kernel.sample(G.atoms[c], n, rng), dtype=float))
    return ExchangeableDataset(sequences=seqs, seed=seed)


def _pairwise_divergence(kernel, G, G2, which):
    def pair(a, b):
        closed = kernel.closed_divergence(which, a, b)
        return divergence_numeric(kernel, a, b, which) if closed is None else closed

    return np.array([[pair(a, b) for b in G2.atoms] for a in G.atoms], dtype=float)


def _check_upper_bound_inputs(G, G2, N):
    if G.k != G2.k:
        raise MismatchedSupportSize(f"support sizes {G.k} != {G2.k}")
    if G.k > PERMUTATION_MAX:
        raise BudgetExceeded(
            f"exact permutation search limited to k <= {PERMUTATION_MAX}"
        )
    check_integer("N", N, 1)


def _min_over_matchings(G, G2, pair, scale, weight_term):
    """min over atom matchings of scale * (largest matched pairwise value)
    + weight_term(total weight discrepancy of the matching); weight_term
    takes the array of discrepancies, one per matching."""
    # Row i of each matrix is G2's atom i, column j is G's atom j.
    atom_term = scale * permutation_totals(pair.T, np.maximum)
    gap = permutation_totals(np.abs(G.weights[None, :] - G2.weights[:, None]))
    return float((atom_term + weight_term(gap)).min())


def hellinger_upper_bound(G, G2, kernel, N):
    """min over atom matchings of sqrt(N) * (largest pairwise Hellinger)
    + sqrt(half the total weight discrepancy)."""
    _check_upper_bound_inputs(G, G2, N)
    H = _pairwise_divergence(kernel, G, G2, "hellinger")
    return _min_over_matchings(
        G, G2, H, math.sqrt(N), lambda gap: np.sqrt(0.5 * gap)
    )


def tv_upper_bound(G, G2, kernel, N):
    """min over atom matchings of the variational bound: for N = 1 the
    largest pairwise TV plus half the weight discrepancy, for N >= 2 the
    sqrt(2N)-scaled largest pairwise Hellinger plus half the discrepancy.

    The sqrt(2) in the N >= 2 scale is needed for the bound to dominate the
    exact distance: TV between product measures is at most sqrt(2) times
    their Hellinger distance, which tensorizes as sqrt(N) per coordinate."""
    _check_upper_bound_inputs(G, G2, N)
    pair = _pairwise_divergence(
        kernel, G, G2, "tv" if N == 1 else "hellinger"
    )
    scale = 1.0 if N == 1 else math.sqrt(2.0 * N)
    return _min_over_matchings(G, G2, pair, scale, lambda gap: 0.5 * gap)


def _tensor_integral(G, G2, kernel, which, nodes, weights):
    """Integral over the node grid squared of the symmetric N = 2 integrand:
    row blocks of at most TENSOR_BLOCK_ENTRIES node pairs, each from the
    diagonal rightward, counting the part right of it twice."""
    V, W = kernel.density(nodes, G.atoms), kernel.density(nodes, G2.atoms)
    Vw, Ww = V * G.weights[:, None], W * G2.weights[:, None]
    if which == "tv":
        # A - B is one product of the stacked rows.
        Vw, V = np.concatenate([Vw, -Ww]), np.concatenate([V, W])
    rows = max(1, TENSOR_BLOCK_ENTRIES // nodes.size)
    total = 0.0
    for lo in range(0, nodes.size, rows):
        hi = min(lo + rows, nodes.size)
        A = Vw[:, lo:hi].T @ V[:, lo:]
        if which == "tv":
            M = np.abs(A, out=A)
        else:
            B = Ww[:, lo:hi].T @ W[:, lo:]
            M = (np.sqrt(np.maximum(A, 0)) - np.sqrt(np.maximum(B, 0))) ** 2
        w = weights[lo:hi]
        total += w @ M[:, : hi - lo] @ w + 2 * (w @ M[:, hi - lo :] @ weights[hi:])
    return 0.5 * float(total)


def _tensor_start(kernel, atoms):
    """The mixture_panels of atoms in order, adjacent runs merged while the
    summed density gives them at most TAIL_EPS, what a tail cut drops: the
    cascades toward a steep support end (beta_pushforward, alpha * xi ~ 1)."""
    lo, hi = mixture_panels(kernel, atoms, segment_boundaries(kernel, atoms))
    lo, hi = lo[np.argsort(lo)], np.sort(hi)
    x, w = panel_rule((lo, hi), 16)
    mass = (w * kernel.density(x, atoms).sum(axis=0)).reshape(lo.size, -1).sum(axis=1)
    starts, run = [0], mass[0]
    for i in range(1, lo.size):
        if run + mass[i] > TAIL_EPS:
            starts.append(i)
            run = 0.0
        run += mass[i]
    return lo[starts], np.append(lo[starts[1:]], hi[-1])


def _quadrature_estimate_n2(G, G2, kernel, which):
    """The N = 2 integral by the order-16 tensor rule on _tensor_start's
    panels, all bisected until the order-8 rule agrees within TENSOR_TOL,
    refusing more than TENSOR_PANELS_MAX panels before laying a rule."""
    lo, hi = _tensor_start(kernel, np.concatenate([G.atoms, G2.atoms]))
    while lo.size <= TENSOR_PANELS_MAX:
        coarse, fine = (
            _tensor_integral(G, G2, kernel, which, *panel_rule((lo, hi), order))
            for order in (8, 16)
        )
        if abs(fine - coarse) < TENSOR_TOL:
            value = math.sqrt(max(fine, 0.0)) if which == "hellinger" else fine
            value = min(max(value, 0.0), 1.0)
            return DivergenceEstimate(value, 0.0, "quadrature", (16 * lo.size) ** 2)
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    raise QuadratureNonConvergence(
        f"tensor quadrature failed to converge below {TENSOR_TOL} "
        f"within {TENSOR_PANELS_MAX} panels"
    )


def _mc_chunk(modelP, modelQ, which, size, rng):
    """Sums of the TV or squared-Hellinger integrand and of its square over
    one chunk of draws from the balanced mixture of P and Q. The chunk is
    reduced once and both models score the reduction. A draw with zero
    density under both (a gamma draw that underflowed to 0.0) scores 1.0."""
    pick = rng.random(size) < 0.5
    X = np.empty((size, modelP.N))
    for model, rows in (
        (modelP, np.flatnonzero(pick)),
        (modelQ, np.flatnonzero(~pick)),
    ):
        if rows.size:
            X[rows] = model.sample(rows.size, rng)
    reduced = modelP.reduce(X)
    with np.errstate(invalid="ignore", over="ignore"):
        d = modelP.score(reduced) - modelQ.score(reduced)
        if which == "tv":
            vals = np.tanh(np.abs(d) / 2.0)
        else:
            vals = 1.0 - 1.0 / np.cosh(d / 2.0)
    vals = np.where(np.isnan(d), 1.0, vals)
    return float(vals.sum()), float((vals**2).sum())


def _mc_estimate(G, G2, kernel, N, which, budget, seed, workers, label):
    modelP = ProductMixtureModel(G, kernel, N)
    modelQ = ProductMixtureModel(G2, kernel, N)
    sizes = chunk_sizes(budget, CHUNK)

    def run_chunk(c):
        rng = chunk_stream(seed, label, c)
        return _mc_chunk(modelP, modelQ, which, sizes[c], rng)

    with ThreadPoolExecutor(max_workers=workers or 1) as pool:
        results = list(pool.map(run_chunk, range(len(sizes))))

    total = sum(sizes)
    s1 = 0.0
    s2 = 0.0
    for a, b in results:
        s1 += a
        s2 += b
    mean = s1 / total
    var = max(s2 - total * mean * mean, 0.0) / max(total - 1, 1)
    se = math.sqrt(var / total)
    if which == "hellinger":
        h = math.sqrt(max(mean, 0.0))
        se = se / (2.0 * max(h, math.sqrt(se))) if se > 0 else 0.0
        value = h
    else:
        value = mean
    return DivergenceEstimate(
        value=min(max(value, 0.0), 1.0),
        stderr=se,
        method="monte-carlo",
        n=total,
    )


def uses_monte_carlo(kernel, N):
    """Whether estimate_divergence falls through to Monte Carlo: N > 2 and
    no 1-D sufficient statistic."""
    return N > 2 and kernel.sufficient_kernel(N) is None


def estimate_divergence(
    G,
    G2,
    kernel,
    N,
    which,
    budget=MC_DEFAULT_BUDGET,
    seed=0,
    workers=None,
    label=None,
):
    """TV or Hellinger between N-product mixtures. The ladder first reduces
    N draws to one draw of a 1-D sufficient statistic where the kernel has
    one (which leaves TV and Hellinger unchanged), then runs the N = 1
    engine (exact enumeration over kernel.points for discrete kernels,
    quadrature otherwise), at N = 2 the tensor rule on the 1-D engine's
    mixture_panels, and above that balanced-mixture Monte Carlo."""
    which = which.lower() if isinstance(which, str) else which
    if which not in ("tv", "hellinger"):
        raise InvalidParameter(f"unknown divergence which={which!r}")
    N = check_integer("N", N, 1)
    check_integer("workers", 1 if workers is None else workers, 1)
    for measure in (G, G2):
        kernel.check_theta(measure.atoms)
    reduced = kernel.sufficient_kernel(N)
    if reduced is not None:
        kernel, N = reduced, 1
    if N == 1:
        value, nodes = mixture_divergence(
            kernel, G.atoms, G.weights, G2.atoms, G2.weights, which
        )
        method = "quadrature" if kernel.points is None else "exact-enumeration"
        return DivergenceEstimate(
            value=min(value, 1.0), stderr=0.0, method=method, n=nodes
        )
    if N == 2:
        return _quadrature_estimate_n2(G, G2, kernel, which)
    budget = check_integer("budget", budget)
    if budget < MC_MIN_BUDGET:
        raise BudgetExceeded(
            f"Monte Carlo needs a budget of at least {MC_MIN_BUDGET} draws"
        )
    seed = check_integer("seed", seed, 0)
    if label is None:
        label = f"divergence/{which}/N{N}"
    return _mc_estimate(G, G2, kernel, N, which, budget, seed, workers, label)


def d_mh(G, G0, kernel, lengths, budget=MC_DEFAULT_BUDGET, seed=0, workers=None):
    """Root average squared Hellinger across the per-sequence lengths."""
    lengths = [check_integer("each entry of lengths", n, 1) for n in lengths]
    if not lengths:
        raise InvalidParameter("lengths must be nonempty")
    cache = {}
    total = 0.0
    for n in lengths:
        if n not in cache:
            cache[n] = estimate_divergence(
                G,
                G0,
                kernel,
                n,
                "hellinger",
                budget=budget,
                seed=seed,
                workers=workers,
                label=f"dmh/N{n}",
            ).value
        total += cache[n] ** 2
    return math.sqrt(total / len(lengths))
