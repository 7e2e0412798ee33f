"""Bayesian inference for mixtures of product sequences.

The model is exact-fitted: the sampler works on a fixed number of
components equal to the truth. The prior is uniform on a compact atom box
times the uniform simplex, the sampler is an adaptive random-walk
Metropolis chain with atoms reflected at the box walls and weights moved
through an additive log-ratio transform, and the contraction experiment
fits log-log error slopes across dataset sizes.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllProposalsRejected,
    ConvergenceError,
    InvalidMeasure,
    InvalidParameter,
)
from .kernels import logsumexp
from .measures import (
    PERMUTATION_MAX,
    MixingMeasure,
    canonical_order,
    distance_DN,
    measure_fault,
    optimal_matching,
    permutation_table,
)
from .products import ExchangeableDataset, sample_dataset
from .rng import stream

DEFAULT_STEPS = 20000
DEFAULT_BURN_FRACTION = 0.25
DEFAULT_TARGET_ACCEPTANCE = 0.23
DEFAULT_ADAPT_INTERVAL = 50
DEFAULT_REJECTION_WINDOW = 500
DEFAULT_INITIAL_SCALE = 0.25
SCALE_FLOOR = 1e-6
SCALE_CEILING = 100.0
COLLISION_RETRIES = 100
QUANTILE_LEVELS = (0.5, 0.9, 0.95)
QUANTILE_KEYS = ("q50", "q90", "q95")
SLOPE_Z = 1.96
LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class PriorSpec:
    """Uniform prior: atoms independent and uniform on a compact box that
    sits inside the kernel's parameter box, weights uniform on the
    simplex."""

    kernel: object
    box: np.ndarray

    def __post_init__(self):
        box = np.atleast_2d(np.asarray(self.box, dtype=float))
        if box.shape != (self.kernel.q, 2):
            raise InvalidParameter(
                f"prior box must be a {self.kernel.q} x 2 array of intervals"
            )
        if not np.all(np.isfinite(box)):
            raise InvalidParameter("prior box bounds must be finite")
        if not np.all(box[:, 0] < box[:, 1]):
            raise InvalidParameter("prior box needs lower < upper per coordinate")
        corners = np.array(list(itertools.product(*box)))
        if not np.all(self.kernel.in_box(corners)):
            raise InvalidParameter("prior box must sit inside the kernel parameter box")
        box = box.copy()
        box.flags.writeable = False
        object.__setattr__(self, "box", box)

    @property
    def q(self):
        return self.box.shape[0]

    @property
    def widths(self):
        return self.box[:, 1] - self.box[:, 0]

    def contains_atoms(self, atoms):
        atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        return bool(
            atoms.shape[1] == self.q
            and np.all(atoms >= self.box[:, 0])
            and np.all(atoms <= self.box[:, 1])
        )

    def log_density(self, G):
        """Log prior density of a mixing measure; -inf outside the box."""
        if G.q != self.q or not self.contains_atoms(G.atoms):
            return float("-inf")
        atom_part = -G.k * float(np.log(self.widths).sum())
        simplex_part = math.lgamma(G.k)
        return atom_part + simplex_part


@dataclass(frozen=True)
class MCMCConfig:
    """Chain length and adaptation knobs for the random-walk sampler."""

    steps: int = DEFAULT_STEPS
    burn_fraction: float = DEFAULT_BURN_FRACTION
    initial_scale: float = DEFAULT_INITIAL_SCALE
    target_acceptance: float = DEFAULT_TARGET_ACCEPTANCE
    adapt_interval: int = DEFAULT_ADAPT_INTERVAL
    rejection_window: int = DEFAULT_REJECTION_WINDOW

    def __post_init__(self):
        if not (isinstance(self.steps, (int, np.integer)) and self.steps >= 2):
            raise InvalidParameter("the chain needs at least two steps")
        if not 0.0 <= self.burn_fraction < 1.0:
            raise InvalidParameter("burn_fraction must lie in [0, 1)")
        if self.burn_steps >= self.steps:
            raise InvalidParameter("burn-in must leave at least one stored draw")
        if not 0.0 < self.initial_scale <= SCALE_CEILING:
            raise InvalidParameter("initial_scale must be positive and bounded")
        if not 0.0 < self.target_acceptance < 1.0:
            raise InvalidParameter("target_acceptance must lie in (0, 1)")
        if self.adapt_interval < 1:
            raise InvalidParameter("adapt_interval must be >= 1")
        if self.rejection_window < 2:
            raise InvalidParameter("rejection_window must be >= 2")

    @property
    def burn_steps(self):
        return int(self.steps * self.burn_fraction)


@dataclass(frozen=True)
class Chain:
    """Stored post-burn-in draws with sampler diagnostics."""

    draws: tuple
    acceptance_rate: float
    scale_trace: tuple
    seed: object

    def __post_init__(self):
        if not self.draws:
            raise InvalidParameter("a chain needs at least one stored draw")
        for G in self.draws:
            if not isinstance(G, MixingMeasure):
                raise InvalidParameter("draws must be mixing measures")
        if not 0.0 < self.acceptance_rate < 1.0:
            raise InvalidParameter("acceptance rate must lie strictly in (0, 1)")
        object.__setattr__(self, "draws", tuple(self.draws))
        object.__setattr__(self, "scale_trace", tuple(self.scale_trace))


def prior_sample(prior, k0, rng):
    """One mixing measure from the prior: weights as normalized exponential
    draws (uniform on the simplex), atoms uniform in the box; atom
    collisions trigger an atom redraw."""
    if not (isinstance(k0, (int, np.integer)) and k0 >= 1):
        raise InvalidParameter("k0 must be a positive integer")
    raw = rng.exponential(size=int(k0))
    weights = raw / raw.sum()
    lo, hi = prior.box[:, 0], prior.box[:, 1]
    for _ in range(COLLISION_RETRIES):
        atoms = rng.uniform(lo, hi, size=(int(k0), prior.q))
        try:
            return MixingMeasure(atoms, weights)
        except InvalidMeasure:
            continue
    raise ConvergenceError("atom draws kept colliding; check the prior box")


def _binary_sufficient_stats(dataset):
    """Unique (length, successes) rows with multiplicities, sorted so the
    evaluation is independent of the sequence order."""
    pairs = np.array(
        [[seq.size, int(round(seq.sum()))] for seq in dataset.sequences],
        dtype=float,
    )
    unique, counts = np.unique(pairs, axis=0, return_counts=True)
    return unique[:, 0], unique[:, 1], counts.astype(float)


def _likelihood_evaluator(kernel, dataset):
    """Callable (atoms, log_weights) -> total log likelihood of the dataset.

    Binary kernels reduce to per-sequence success counts grouped by their
    (length, count) signature; other kernels evaluate the log density on
    the concatenated samples and segment-sum per sequence.
    """
    if dataset is None:
        return lambda atoms, log_weights: 0.0
    if kernel.data_space == "binary":
        lengths, successes, counts = _binary_sufficient_stats(dataset)

        def loglik(atoms, log_weights):
            th = atoms[:, 0]
            lt = np.log(th)
            l1t = np.log1p(-th)
            mat = (
                log_weights[None, :]
                + successes[:, None] * lt[None, :]
                + (lengths - successes)[:, None] * l1t[None, :]
            )
            return float(counts @ logsumexp(mat, axis=1))

        return loglik

    concat = np.concatenate(dataset.sequences)
    starts = np.concatenate(
        [[0], np.cumsum([seq.size for seq in dataset.sequences])[:-1]]
    ).astype(int)

    def loglik(atoms, log_weights):
        per_seq = np.add.reduceat(kernel.log_density(concat, atoms), starts, axis=1)
        return float(logsumexp(log_weights[:, None] + per_seq, axis=0).sum())

    return loglik


def log_posterior_unnorm(G, dataset, kernel, prior):
    """Data log likelihood plus log prior density; -inf outside the prior
    support. ``dataset`` may be None for the no-data case."""
    log_prior = prior.log_density(G)
    if log_prior == float("-inf"):
        return float("-inf")
    loglik = _likelihood_evaluator(kernel, dataset)
    log_weights = np.log(G.weights)
    return loglik(G.atoms, log_weights) + log_prior


def _reflect_into_box(values, lo, hi):
    width = hi - lo
    folded = np.mod(values - lo, 2.0 * width)
    return lo + np.where(folded > width, 2.0 * width - folded, folded)


def _alr_to_weights(u):
    z = np.concatenate([u, [0.0]])
    logw = z - logsumexp(z)
    return np.exp(logw), logw


def mcmc_run(dataset, kernel, prior, k0, config, rng):
    """Adaptive random-walk Metropolis chain on (atoms, weights).

    Atoms move by Gaussian steps reflected at the prior box walls, weights
    by Gaussian steps on additive log-ratio coordinates; the target in
    those coordinates is the log likelihood plus the transform's log
    Jacobian, the sum of the log weights. The proposal scale adapts toward
    the target acceptance during burn-in, then freezes. Deterministic
    given an integer seed.
    """
    if dataset is not None and not isinstance(dataset, ExchangeableDataset):
        raise InvalidParameter("dataset must be an ExchangeableDataset or None")
    if dataset is None:
        raise InvalidParameter("the sampler needs a dataset; got None")
    if not (isinstance(k0, (int, np.integer)) and k0 >= 1):
        raise InvalidParameter("k0 must be a positive integer")
    if not isinstance(config, MCMCConfig):
        raise InvalidParameter("config must be an MCMCConfig")
    if prior.q != kernel.q:
        raise InvalidParameter("prior box dimension must match the kernel")
    seed = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.default_rng(seed)

    loglik = _likelihood_evaluator(kernel, dataset)
    k0 = int(k0)
    lo, hi = prior.box[:, 0], prior.box[:, 1]
    widths = prior.widths

    start = prior_sample(prior, k0, rng)
    atoms = start.atoms.copy()
    u = np.log(start.weights[:-1] / start.weights[-1])
    weights, logw = _alr_to_weights(u)
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
        prop_weights, prop_logw = _alr_to_weights(prop_u)
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
        draws=tuple(
            MixingMeasure(a, w) for a, w in zip(kept_atoms, kept_weights)
        ),
        acceptance_rate=accepted / config.steps,
        scale_trace=tuple(trace),
        seed=seed,
    )


def _matched_errors(draws, G0, N):
    """Per-draw distances to the truth.

    The mixed metric minimizes over matchings on its own; the atom and
    weight errors are the two components of the single best matching of
    each draw to the truth, so one matching explains all three numbers.
    Support sizes up to PERMUTATION_MAX scan every permutation, one
    vectorized pass over the draws per permutation; the result equals the
    assignment-solver distances up to rounding.
    """
    k = G0.k
    n = len(draws)
    if k <= PERMUTATION_MAX:
        atoms = np.stack([G.atoms for G in draws])
        weights = np.stack([G.weights for G in draws])
        root_n = math.sqrt(float(N))
        d_mix = np.full(n, np.inf)
        best = np.full(n, np.inf)
        d_atom = np.empty(n)
        d_weight = np.empty(n)
        for perm in permutation_table(k):
            diff = atoms[:, perm, :] - G0.atoms[None, :, :]
            atom_cost = np.sqrt((diff**2).sum(axis=2)).sum(axis=1)
            weight_cost = np.abs(
                weights[:, perm] - G0.weights[None, :]
            ).sum(axis=1)
            np.minimum(d_mix, root_n * atom_cost + weight_cost, out=d_mix)
            total = atom_cost + weight_cost
            better = total < best
            best[better] = total[better]
            d_atom[better] = atom_cost[better]
            d_weight[better] = weight_cost[better]
        return d_mix, d_atom, d_weight

    d_mix = np.empty(n)
    d_atom = np.empty(n)
    d_weight = np.empty(n)
    for i, G in enumerate(draws):
        d_mix[i] = distance_DN(G, G0, N)
        perm = list(optimal_matching(G, G0).permutation)
        d_atom[i] = float(
            np.linalg.norm(G.atoms[perm] - G0.atoms, axis=1).sum()
        )
        d_weight[i] = float(np.abs(G.weights[perm] - G0.weights).sum())
    return d_mix, d_atom, d_weight


def posterior_error_summary(chain, G0, N_bar):
    """Quantiles (0.5, 0.9, 0.95) of the sequence-length metric at N_bar,
    plus the atom and weight errors read off each draw's best matching to
    the truth."""
    if not (np.isscalar(N_bar) and N_bar > 0):
        raise InvalidParameter("N_bar must be a positive real")
    d_mix, d_atom, d_weight = _matched_errors(chain.draws, G0, float(N_bar))
    summary = {"N_bar": float(N_bar), "count": len(chain.draws)}
    for key, values in (
        ("D_N", d_mix), ("d_theta", d_atom), ("d_p", d_weight)
    ):
        qs = np.quantile(values, QUANTILE_LEVELS)
        summary[key] = {
            name: float(v) for name, v in zip(QUANTILE_KEYS, qs)
        }
    return summary


@dataclass(frozen=True)
class ContractionReport:
    """Per-(dataset size, replicate) posterior error quantiles plus fitted
    log-log slopes of the weight error in the sequence count and the atom
    error in the total observation count."""

    params: dict
    rows: tuple
    slopes: dict

    def __post_init__(self):
        if not self.rows:
            raise InvalidParameter("a contraction report needs rows")
        for row in self.rows:
            for key, value in row.items():
                if key.startswith(("D_N", "d_theta", "d_p")) and value < 0:
                    raise InvalidParameter("error quantiles must be nonnegative")
        for fit in self.slopes.values():
            if "r_squared" not in fit:
                raise InvalidParameter("slope fits must carry r_squared")
        object.__setattr__(self, "rows", tuple(self.rows))

    def row_records(self):
        return [dict(row) for row in self.rows]

    def slope_envelope(self):
        return {"params": self.params, "slopes": self.slopes}


def _ols_loglog(x, y):
    logx = np.log(np.maximum(np.asarray(x, dtype=float), LOG_FLOOR))
    logy = np.log(np.maximum(np.asarray(y, dtype=float), LOG_FLOOR))
    coeffs, cov = np.polyfit(logx, logy, 1, cov=True)
    slope = float(coeffs[0])
    stderr = float(math.sqrt(max(cov[0, 0], 0.0)))
    fitted = np.polyval(coeffs, logx)
    ss_res = float(((logy - fitted) ** 2).sum())
    ss_tot = float(((logy - logy.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return {
        "slope": slope,
        "stderr": stderr,
        "ci_lo": slope - SLOPE_Z * stderr,
        "ci_hi": slope + SLOPE_Z * stderr,
        "r_squared": float(r_squared),
    }


def _resolve_length_law(length_law):
    if not isinstance(length_law, (tuple, list)) or not length_law:
        raise InvalidParameter("length law must be a tuple")
    kind = length_law[0]
    if kind == "constant":
        if len(length_law) != 2 or int(length_law[1]) < 1:
            raise InvalidParameter("constant length law needs one length >= 1")
        n = int(length_law[1])
        return n, lambda rng, m: [n] * m
    if kind == "uniform":
        if len(length_law) != 3:
            raise InvalidParameter("uniform length law needs bounds (lo, hi)")
        lo, hi = int(length_law[1]), int(length_law[2])
        if not 1 <= lo <= hi:
            raise InvalidParameter("uniform length bounds need 1 <= lo <= hi")
        return lo, lambda rng, m: [int(v) for v in rng.integers(lo, hi + 1, m)]
    raise InvalidParameter(f"unknown length law kind {kind!r}")


def contraction_experiment(
    kernel,
    G0,
    m_grid,
    length_law,
    replicates,
    config,
    rng,
    prior=None,
    workers=None,
):
    """Posterior error decay across dataset sizes.

    For each sequence count in the grid and each replicate, draws a dataset
    from the truth, runs the sampler on its own derived stream, and records
    error quantiles; then fits the log weight-error median against the log
    sequence count and the log atom-error median against the log total
    observation count. Every (size, replicate) task derives its stream
    from the master seed and its label, so execution order never changes
    the report. Chains run one after another in the calling process;
    ``workers`` is accepted and has no effect.
    """
    if isinstance(rng, (int, np.integer)):
        master = int(rng)
    else:
        master = int(rng.integers(2**63))
    m_values = [int(m) for m in m_grid]
    if len(m_values) < 2 or any(m < 1 for m in m_values):
        raise InvalidParameter(
            "the size grid needs at least two sequence counts for a slope"
        )
    replicates = int(replicates)
    if replicates < 1:
        raise InvalidParameter("replicates must be >= 1")
    if len(m_values) * replicates < 3:
        raise InvalidParameter("too few cells to fit a slope with a stderr")
    if not isinstance(config, MCMCConfig):
        raise InvalidParameter("config must be an MCMCConfig")
    min_length, draw_lengths = _resolve_length_law(length_law)
    if kernel.data_space == "binary":
        needed = 2 * G0.k - 1
    else:
        needed = 2
    if min_length < needed:
        raise InvalidParameter(
            f"minimum sequence length {min_length} is below the identifiable "
            f"length {needed} for this kernel"
        )
    if prior is None:
        if kernel.data_space == "binary":
            prior = PriorSpec(kernel, np.array([[0.01, 0.99]]))
        else:
            raise InvalidParameter(
                "a prior is required for non-binary kernels"
            )
    if not prior.contains_atoms(G0.atoms):
        raise InvalidParameter("the truth must lie inside the prior box")

    tasks = [(m, rep) for m in m_values for rep in range(replicates)]

    def run_task(task):
        m, rep = task
        task_rng = stream(master, f"contract/m{m}/rep{rep}")
        lengths = draw_lengths(task_rng, m)
        dataset = sample_dataset(G0, kernel, lengths, task_rng)
        chain = mcmc_run(dataset, kernel, prior, G0.k, config, task_rng)
        summary = posterior_error_summary(chain, G0, dataset.mean_length)
        row = {
            "m": m,
            "replicate": rep,
            "N_bar": float(dataset.mean_length),
            "total_length": int(dataset.total_length),
            "acceptance": float(chain.acceptance_rate),
        }
        for metric in ("D_N", "d_theta", "d_p"):
            for key in QUANTILE_KEYS:
                row[f"{metric}_{key}"] = summary[metric][key]
        return row

    rows = [run_task(task) for task in tasks]

    slopes = {
        "d_p_vs_m": _ols_loglog(
            [row["m"] for row in rows],
            [row["d_p_q50"] for row in rows],
        ),
        "d_theta_vs_total_length": _ols_loglog(
            [row["total_length"] for row in rows],
            [row["d_theta_q50"] for row in rows],
        ),
    }
    params = {
        "kernel": kernel.name,
        "G0": G0.to_json(),
        "m_grid": m_values,
        "length_law": list(length_law),
        "replicates": replicates,
        "steps": config.steps,
        "burn_fraction": config.burn_fraction,
        "seed": master,
        "prior_box": prior.box.tolist(),
    }
    return ContractionReport(params=params, rows=tuple(rows), slopes=slopes)
