"""Mixtures of product distributions over length-N exchangeable sequences:
densities, dataset sampling, permutation-minimized divergence upper bounds,
and automatic exact/quadrature/Monte-Carlo divergence estimation."""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import (
    BudgetExceeded,
    InvalidParameter,
    LengthMismatch,
    MismatchedSupportSize,
    QuadratureNonConvergence,
)
from .kernels import (
    _distance_integrand,
    _gl_nodes,
    _segment_boundaries,
    divergence_numeric,
    integrate_piecewise,
    logsumexp,
)
from .measures import PERMUTATION_MAX, permutation_table
from .rng import CHUNK, chunk_sizes, chunk_stream

MC_DEFAULT_BUDGET = 10**6
MC_MIN_BUDGET = 10**4
TAIL_EPS = 1e-13
TENSOR_TOL = 1e-7
TENSOR_BLOCK_ENTRIES = 2**22


class ProductMixtureModel:
    """Law of a length-N sequence: mixture over atoms of N-fold product
    distributions of the kernel."""

    def __init__(self, measure, kernel, N):
        if not (isinstance(N, (int, np.integer)) and N >= 1):
            raise InvalidParameter("N must be a positive integer")
        kernel.check_theta(measure.atoms)
        self.measure = measure
        self.kernel = kernel
        self.N = int(N)

    def log_density(self, xbar):
        xbar = np.asarray(xbar, dtype=float).reshape(-1)
        if xbar.size != self.N:
            raise LengthMismatch(
                f"sequence length {xbar.size} does not match N = {self.N}"
            )
        return float(self.log_density_many(xbar[None, :])[0])

    def log_density_many(self, X):
        """Log densities of rows of X, an (n, N) array of sequences."""
        X = np.asarray(X, dtype=float)
        with np.errstate(invalid="ignore"):
            comp = self.kernel.log_density(X, self.measure.atoms).sum(axis=-1)
        return logsumexp(comp + np.log(self.measure.weights)[:, None], axis=0)

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


@dataclass
class ExchangeableDataset:
    """m sequences of per-sequence lengths; the generator seed is recorded
    when known (None for datasets loaded from disk)."""

    sequences: list
    seed: object = None

    def __post_init__(self):
        seqs = []
        for s in self.sequences:
            arr = np.asarray(s, dtype=float).reshape(-1)
            if arr.size < 1:
                raise InvalidParameter("every sequence needs at least one value")
            if not np.all(np.isfinite(arr)):
                raise InvalidParameter("sequence values must be finite")
            seqs.append(arr)
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
        seqs = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    seqs.append(json.loads(line)["seq"])
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
            raise InvalidParameter(
                f"TV/Hellinger value {self.value} outside [0, 1]"
            )


def sample_dataset(G, kernel, lengths, rng, seed=None):
    """One latent component per sequence, then conditionally i.i.d. draws."""
    lengths = [int(n) for n in lengths]
    if any(n < 1 for n in lengths):
        raise InvalidParameter("all sequence lengths must be >= 1")
    comps = rng.choice(G.k, size=len(lengths), p=G.weights)
    seqs = []
    for c, n in zip(comps, lengths):
        seqs.append(np.asarray(kernel.sample(G.atoms[c], n, rng), dtype=float))
    return ExchangeableDataset(sequences=seqs, seed=seed)


def _pairwise_divergence(kernel, G, G2, which):
    k = G.k
    out = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            closed = kernel.closed_divergence(which, G.atoms[i], G2.atoms[j])
            if closed is None:
                closed = divergence_numeric(
                    kernel, G.atoms[i], G2.atoms[j], which
                )
            out[i, j] = closed
    return out


def _check_upper_bound_inputs(G, G2, N):
    if G.k != G2.k:
        raise MismatchedSupportSize(f"support sizes {G.k} != {G2.k}")
    if G.k > PERMUTATION_MAX:
        raise BudgetExceeded(
            f"exact permutation search limited to k <= {PERMUTATION_MAX}"
        )
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise InvalidParameter("N must be a positive integer")


def _min_over_matchings(G, G2, pair, scale, weight_term):
    """min over atom matchings of scale * (largest matched pairwise value)
    + weight_term(total weight discrepancy of the matching); weight_term
    takes the array of discrepancies, one per matching."""
    table = permutation_table(G.k)
    atom_term = scale * pair[table, np.arange(G.k)].max(axis=1)
    gap = np.abs(G.weights[table] - G2.weights).sum(axis=1)
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


def bernoulli_count_probs(G, N):
    """Exact success-count law of the product mixture: the N+1 probabilities
    P(count = s) with binomial multiplicities."""
    s = np.arange(N + 1)
    log_binom = gammaln(N + 1) - gammaln(s + 1) - gammaln(N - s + 1)
    thetas = G.atoms[:, 0]
    log_comp = (
        log_binom[None, :]
        + s[None, :] * np.log(thetas)[:, None]
        + (N - s)[None, :] * np.log1p(-thetas)[:, None]
    )
    return np.exp(logsumexp(log_comp + np.log(G.weights)[:, None], axis=0))


def _exact_bernoulli_estimate(G, G2, N, which):
    p = bernoulli_count_probs(G, N)
    q = bernoulli_count_probs(G2, N)
    if which == "tv":
        value = 0.5 * float(np.abs(p - q).sum())
    else:
        value = math.sqrt(
            max(0.5 * float(((np.sqrt(p) - np.sqrt(q)) ** 2).sum()), 0.0)
        )
    return DivergenceEstimate(
        value=min(value, 1.0), stderr=0.0, method="exact-enumeration", n=N + 1
    )


def _quadrature_estimate_n1(G, G2, kernel, which):
    atoms = np.concatenate([G.atoms, G2.atoms])
    evals = [0]

    def mixtures(x):
        evals[0] += 1
        dens = kernel.density(x, atoms)
        return G.weights @ dens[: G.k], G2.weights @ dens[G.k :]

    value = integrate_piecewise(
        _distance_integrand(which, mixtures), _segment_boundaries(kernel, atoms)
    )
    if which == "hellinger":
        value = math.sqrt(max(value, 0.0))
    return DivergenceEstimate(
        value=min(max(value, 0.0), 1.0),
        stderr=0.0,
        method="quadrature",
        n=evals[0],
    )


def _tensor_integral(G, G2, kernel, which, nodes, weights):
    """Integral over the node grid squared of the N = 2 integrand, summed
    over row blocks of at most TENSOR_BLOCK_ENTRIES node pairs."""
    V = kernel.density(nodes, G.atoms)
    W = kernel.density(nodes, G2.atoms)
    Vw = V * G.weights[:, None]
    Ww = W * G2.weights[:, None]
    rows = max(1, TENSOR_BLOCK_ENTRIES // nodes.size)
    total = 0.0
    for lo in range(0, nodes.size, rows):
        block = slice(lo, lo + rows)
        A = Vw[:, block].T @ V
        B = Ww[:, block].T @ W
        if which == "tv":
            M = 0.5 * np.abs(A - B)
        else:
            M = 0.5 * (np.sqrt(np.maximum(A, 0)) - np.sqrt(np.maximum(B, 0))) ** 2
        total += weights[block] @ M @ weights
    return float(total)


def _quadrature_estimate_n2(G, G2, kernel, which):
    bounds = _segment_boundaries(
        kernel, np.concatenate([G.atoms, G2.atoms]), TAIL_EPS
    )
    panels = max(1, 64 // (len(bounds) - 1))
    for _ in range(6):
        x8, w8 = _gl_nodes(bounds, panels, 8)
        x16, w16 = _gl_nodes(bounds, panels, 16)
        coarse = _tensor_integral(G, G2, kernel, which, x8, w8)
        fine = _tensor_integral(G, G2, kernel, which, x16, w16)
        if abs(fine - coarse) < TENSOR_TOL:
            value = fine
            if which == "hellinger":
                value = math.sqrt(max(value, 0.0))
            return DivergenceEstimate(
                value=min(max(value, 0.0), 1.0),
                stderr=0.0,
                method="quadrature",
                n=x16.size**2,
            )
        panels *= 2
    raise QuadratureNonConvergence(
        f"tensor quadrature failed to converge below {TENSOR_TOL}"
    )


def _mc_chunk(modelP, modelQ, which, size, rng):
    pick = rng.random(size) < 0.5
    X = np.empty((size, modelP.N))
    for model, rows in (
        (modelP, np.flatnonzero(pick)),
        (modelQ, np.flatnonzero(~pick)),
    ):
        if rows.size:
            X[rows] = model.sample(rows.size, rng)
    d = modelP.log_density_many(X) - modelQ.log_density_many(X)
    with np.errstate(over="ignore"):
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

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, range(len(sizes))))
    else:
        results = [run_chunk(c) for c in range(len(sizes))]

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
    """TV or Hellinger between N-product mixtures; the method ladder is exact
    success-count enumeration (binary kernels, any N), piecewise/tensor
    quadrature (continuous, N <= 2), then balanced-mixture Monte Carlo."""
    which = which.lower()
    if which not in ("tv", "hellinger"):
        raise InvalidParameter(f"unknown divergence {which!r}")
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise InvalidParameter("N must be a positive integer")
    for measure in (G, G2):
        kernel.check_theta(measure.atoms)
    if kernel.data_space == "binary":
        return _exact_bernoulli_estimate(G, G2, N, which)
    if N == 1:
        return _quadrature_estimate_n1(G, G2, kernel, which)
    if N == 2:
        return _quadrature_estimate_n2(G, G2, kernel, which)
    if budget < MC_MIN_BUDGET:
        raise BudgetExceeded(
            f"Monte Carlo needs a budget of at least {MC_MIN_BUDGET} draws"
        )
    if label is None:
        label = f"divergence/{which}/N{N}"
    return _mc_estimate(G, G2, kernel, N, which, int(budget), seed, workers, label)


def d_mh(G, G0, kernel, lengths, budget=MC_DEFAULT_BUDGET, seed=0, workers=None):
    """Root average squared Hellinger across the per-sequence lengths."""
    lengths = [int(n) for n in lengths]
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
