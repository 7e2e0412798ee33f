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
    MismatchedSupportSize,
    check_integer,
    check_real,
)
from .kernels import logsumexp
from .measures import (
    PERMUTATION_MAX,
    MixingMeasure,
    canonical_order,
    least_matchings,
    permutation_totals,
    valid_measures,
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
# The sampler scores at most PROPOSAL_BLOCK proposals in one vectorized
# pass; the chain does not depend on how many. The proposals after a
# block's first acceptance are scored for nothing, so _block_length weighs
# them against a fixed cost per block of BLOCK_OVERHEAD_CELLS likelihood
# cells (one atom of one measure against one data row): building, checking
# and scanning a block takes about 100 us of numpy calls, and a cell
# 30-50 ns.
PROPOSAL_BLOCK = 8
BLOCK_OVERHEAD_CELLS = 2000
# The error summary takes at most this many array entries per block of draws.
MATCHING_BLOCK_ENTRIES = 2**22


@dataclass(frozen=True)
class PriorSpec:
    """Uniform prior: atoms independent and uniform on a compact box that
    sits inside the kernel's parameter box, weights uniform on the
    simplex."""

    kernel: object
    box: np.ndarray

    def __post_init__(self):
        try:
            box = np.atleast_2d(np.asarray(self.box, dtype=float))
        except (TypeError, ValueError) as err:  # ragged or non-numeric input
            raise InvalidParameter(f"prior box must be numeric: {err}") from err
        if box.shape != (self.kernel.q, 2):
            raise InvalidParameter(
                f"prior box must be a {self.kernel.q} x 2 array of intervals"
            )
        if not np.all(np.isfinite(box)):
            raise InvalidParameter("prior box bounds must be finite")
        if not np.all(box[:, 0] < box[:, 1]):
            raise InvalidParameter("prior box needs lower < upper per coordinate")
        box = box.copy()
        box.flags.writeable = False
        object.__setattr__(self, "box", box)
        if not np.all(self.kernel.in_box(self.corners)):
            raise InvalidParameter("prior box must sit inside the kernel parameter box")

    @property
    def corners(self):
        """The 2^q corners of the box, one per row."""
        return np.array(list(itertools.product(*self.box)))

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
        check_integer("steps", self.steps, 2)
        check_integer("adapt_interval", self.adapt_interval, 1)
        check_integer("rejection_window", self.rejection_window, 2)
        check_real("target_acceptance", self.target_acceptance, 0, 1, strict=True)
        if not 0.0 <= check_real("burn_fraction", self.burn_fraction) < 1.0:
            raise InvalidParameter("burn_fraction must lie in [0, 1)")
        if self.burn_steps >= self.steps:
            raise InvalidParameter("burn-in must leave at least one stored draw")
        if not 0.0 < check_real("initial_scale", self.initial_scale) <= SCALE_CEILING:
            raise InvalidParameter("initial_scale must be positive and bounded")

    @property
    def burn_steps(self):
        return int(self.steps * self.burn_fraction)


@dataclass(frozen=True, eq=False)
class Chain:
    """Stored post-burn-in draws with sampler diagnostics. The T draws are
    the rows of read-only (T, k, q) atoms and (T, k) weights. Chains
    compare by identity, as measures do."""

    atoms: np.ndarray
    weights: np.ndarray
    acceptance_rate: float
    scale_trace: tuple
    seed: object

    def __post_init__(self):
        try:
            atoms = np.array(self.atoms, dtype=float)
            weights = np.array(self.weights, dtype=float)
        except (TypeError, ValueError) as err:  # ragged or non-numeric input
            raise InvalidParameter(f"chain draws must be numeric: {err}") from err
        if atoms.ndim != 3 or min(atoms.shape) < 1 or weights.shape != atoms.shape[:2]:
            message = "chain draws must be (T, k, q) atoms and (T, k) weights, T >= 1"
            raise InvalidParameter(message)
        if not valid_measures(atoms, weights).all():
            raise InvalidParameter("every chain draw must be a valid mixing measure")
        check_real("acceptance_rate", self.acceptance_rate, 0, 1, strict=True)
        atoms.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "scale_trace", tuple(self.scale_trace))

    @property
    def draws(self):
        """The stored draws as a tuple of MixingMeasure, built on each read."""
        return tuple(MixingMeasure(a, w) for a, w in zip(self.atoms, self.weights))


def prior_sample(prior, k0, rng):
    """One mixing measure from the prior: weights as normalized exponential
    draws (uniform on the simplex), atoms uniform in the box; atom
    collisions trigger an atom redraw."""
    k0 = check_integer("k0", k0, 1)
    raw = rng.exponential(size=k0)
    weights = raw / raw.sum()
    lo, hi = prior.box[:, 0], prior.box[:, 1]
    for _ in range(COLLISION_RETRIES):
        atoms = rng.uniform(lo, hi, size=(k0, prior.q))
        try:
            return MixingMeasure(atoms, weights)
        except InvalidMeasure:
            continue
    raise ConvergenceError("atom draws kept colliding; check the prior box")


def _likelihood_evaluator(kernel, dataset, prior):
    """Callable (atoms, log_weights) -> total log likelihood of the dataset,
    for a stack of B measures: (B, k, q) atoms and (B, k) log weights give
    a (B,) array whose entries do not depend on B or on the other measures.
    Returned with the number of data rows a measure's likelihood reads.

    Kernels with an ``expfam`` see a sequence only through its length n_j
    and summed statistic S_j = sum_t T(x_jt). The unique (n_j, S_j) rows
    with their counts and the summed log-carrier are built once; a measure
    costs counts @ logsumexp(log w + S eta(theta)^T - n A(eta(theta))) plus
    that constant, at O(rows * k), with one dot product per measure so that
    its sum does not depend on B. Other kernels evaluate the log density on
    the concatenated samples and segment-sum per sequence. InvalidParameter
    names a value outside a discrete kernel's points, with an infinite
    log-carrier, or with zero density at every corner of the prior box: the
    support of each kernel grows toward a corner, so such a value has zero
    density for every theta in the box.
    """
    if dataset is None:
        return (lambda atoms, log_weights: np.zeros(len(atoms))), 0
    concat = np.concatenate(dataset.sequences)
    lengths = np.array(dataset.lengths)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    spec = kernel.expfam
    carrier = np.zeros(concat.shape) if spec is None else spec.log_carrier(concat)
    bad = ~np.isfinite(carrier)
    if kernel.points is not None:
        bad |= ~np.isin(concat, kernel.points)
    # One corner at a time keeps the memory at O(sum n_j) for any q.
    outside = np.ones(concat.shape, dtype=bool)
    for corner in prior.corners:
        outside &= np.isneginf(kernel.log_density(concat, corner[None]))[0]
        if not outside.any():
            break
    bad |= outside
    if bad.any():
        raise InvalidParameter(
            f"{kernel.name}: data value {float(concat[bad][0])!r} outside the support"
        )

    if spec is None:

        def loglik(atoms, log_weights):
            per_seq = np.add.reduceat(kernel.log_density(concat, atoms), starts, axis=2)
            return logsumexp(log_weights[:, :, None] + per_seq, axis=1).sum(axis=1)

        return loglik, len(concat)

    sums = np.add.reduceat(spec.stat(concat), starts, axis=0)
    rows, counts = np.unique(
        np.column_stack([lengths, sums]), axis=0, return_counts=True
    )
    n, S = rows[:, :1], rows[:, 1:]
    counts = counts.astype(float)
    constant = float(carrier.sum())

    def loglik(atoms, log_weights):
        eta = spec.natural(atoms)
        mat = (
            log_weights[:, None, :]
            + S @ np.swapaxes(eta, 1, 2)
            - n * spec.log_partition(eta)[:, None, :]
        )
        return np.array([counts @ row for row in logsumexp(mat, axis=2)]) + constant

    return loglik, len(rows)


def log_posterior_unnorm(G, dataset, kernel, prior):
    """Data log likelihood plus log prior density; -inf outside the prior
    support. ``dataset`` may be None for the no-data case."""
    log_prior = prior.log_density(G)
    if log_prior == float("-inf"):
        return float("-inf")
    loglik, _ = _likelihood_evaluator(kernel, dataset, prior)
    log_weights = np.log(G.weights)
    return float(loglik(G.atoms[None], log_weights[None])[0]) + log_prior


def _reflect_into_box(values, lo, hi):
    width = hi - lo
    folded = np.mod(values - lo, 2.0 * width)
    return lo + np.where(folded > width, 2.0 * width - folded, folded)


def _alr_to_weights(u):
    """Weights and log weights of (..., k - 1) additive log-ratio
    coordinates, the last component the reference."""
    z = np.concatenate([u, np.zeros(u.shape[:-1] + (1,))], axis=-1)
    logw = z - logsumexp(z)[..., None]
    return np.exp(logw), logw


def _block_length(rate, cells):
    """The number of proposals, 1 to PROPOSAL_BLOCK, to score in one pass
    at the least expected cost per step, when each step accepts with
    probability ``rate`` and a measure's likelihood reads ``cells`` cells.
    A block ends at its first acceptance, so a block of B takes
    1 + (1 - rate) + ... + (1 - rate)^(B - 1) steps on average."""
    lengths = np.arange(1, PROPOSAL_BLOCK + 1)
    steps = np.cumsum((1.0 - rate) ** (lengths - 1))
    return int(np.argmin((BLOCK_OVERHEAD_CELLS + cells * lengths) / steps)) + 1


def mcmc_run(dataset, kernel, prior, k0, config, rng):
    """Adaptive random-walk Metropolis chain on (atoms, weights).

    Atoms move by Gaussian steps reflected at the prior box walls, weights
    by Gaussian steps on additive log-ratio coordinates; the target in
    those coordinates is the log likelihood plus the transform's log
    Jacobian, the sum of the log weights. The proposal scale adapts toward
    the target acceptance during burn-in, then freezes. Deterministic
    given an integer seed.

    Every step's noise is drawn before the first step, in the per-step
    order normal(k, q), normal(k - 1), random(); this holds O(steps * k * q)
    floats. The noise does not depend on the state, and every proposal
    made while the chain keeps rejecting starts from the same state, so
    the next B proposals (never past an adaptation during burn-in) are
    built, checked and scored as one stack. The first one accepted ends
    the block, and the steps before it are rejections. The proposals after
    it are wasted, so B is set by ``_block_length`` from the acceptance
    rate and the likelihood's size: at the target acceptance at first,
    then at the chain's acceptance so far at each adaptation. The
    generator stream, the draws, the acceptance rate and the scale trace
    are those of a chain that makes one proposal per step, whatever B is.
    """
    if not isinstance(dataset, ExchangeableDataset):
        kind = type(dataset).__name__
        raise InvalidParameter(f"the sampler needs an ExchangeableDataset, got {kind}")
    k0 = check_integer("k0", k0, 1)
    if not isinstance(config, MCMCConfig):
        raise InvalidParameter("config must be an MCMCConfig")
    if prior.q != kernel.q:
        raise InvalidParameter("prior box dimension must match the kernel")
    seed = None
    if not isinstance(rng, np.random.Generator):
        seed = check_integer("rng", rng, 0)
        rng = np.random.default_rng(seed)

    loglik, rows = _likelihood_evaluator(kernel, dataset, prior)
    lo, hi = prior.box[:, 0], prior.box[:, 1]
    widths = prior.widths

    start = prior_sample(prior, k0, rng)
    atoms = start.atoms.copy()
    u = np.log(start.weights[:-1] / start.weights[-1])
    weights, logw = _alr_to_weights(u)
    current = loglik(atoms[None], logw[None])[0] + logw.sum()

    steps = config.steps
    noise_atoms = np.empty((steps, k0, prior.q))
    noise_u = np.empty((steps, k0 - 1))
    log_uniform = np.empty(steps)
    for step in range(steps):
        noise_atoms[step] = rng.normal(size=atoms.shape)
        noise_u[step] = rng.normal(size=u.shape)
        log_uniform[step] = math.log(rng.random())

    scale = config.initial_scale
    trace = [(0, scale)]
    burn = config.burn_steps
    interval = config.adapt_interval
    accepted = 0
    window_accepted = 0
    consecutive_rejects = 0
    kept_atoms = np.empty((steps - burn, k0, prior.q))
    kept_weights = np.empty((steps - burn, k0))
    block = _block_length(config.target_acceptance, rows * k0)

    step = 0
    while step < steps:
        end = min(step + block, steps)
        if step < burn:
            end = min(end, (step // interval + 1) * interval)
        prop_atoms = _reflect_into_box(
            atoms + scale * widths * noise_atoms[step:end], lo, hi
        )
        prop_u = u + 2.0 * scale * noise_u[step:end]
        prop_weights, prop_logw = _alr_to_weights(prop_u)
        accept = valid_measures(prop_atoms, prop_weights)
        proposal = np.full(end - step, -math.inf)
        if accept.any():
            proposal[accept] = (
                loglik(prop_atoms[accept], prop_logw[accept])
                + prop_logw[accept].sum(axis=1)
            )
        if current != -math.inf:
            accept &= log_uniform[step:end] < proposal - current
        rejects = int(accept.argmax()) if accept.any() else end - step

        if consecutive_rejects + rejects >= config.rejection_window:
            raise AllProposalsRejected(
                f"{config.rejection_window} consecutive rejections at step "
                f"{step + config.rejection_window - consecutive_rejects - 1}; "
                f"the proposal scale {scale:.3g} is likely far off"
            )
        stored = slice(max(step - burn, 0), max(step + rejects - burn, 0))
        kept_atoms[stored] = atoms
        kept_weights[stored] = weights
        step += rejects
        consecutive_rejects += rejects
        if step < end:
            atoms = prop_atoms[rejects]
            u = prop_u[rejects]
            weights = prop_weights[rejects]
            current = proposal[rejects]
            accepted += 1
            window_accepted += 1
            consecutive_rejects = 0
            if step >= burn:
                kept_atoms[step - burn] = atoms
                kept_weights[step - burn] = weights
            step += 1

        if step <= burn and step % interval == 0:
            rate = window_accepted / interval
            scale = float(
                np.clip(
                    scale * math.exp(rate - config.target_acceptance),
                    SCALE_FLOOR,
                    SCALE_CEILING,
                )
            )
            window_accepted = 0
            trace.append((step, scale))
            block = _block_length(accepted / step, rows * k0)

    order = canonical_order(kept_atoms)
    kept_atoms = np.take_along_axis(kept_atoms, order[:, :, None], axis=1)
    kept_weights = np.take_along_axis(kept_weights, order, axis=1)
    return Chain(kept_atoms, kept_weights, accepted / config.steps, trace, seed)


def _matched_errors(chain, G0, N):
    """Per-draw distances to the truth.

    The mixed metric minimizes over matchings on its own; the atom and
    weight errors are the two components of the single best matching of
    each draw to the truth, so one matching explains all three numbers.
    Draws go in blocks of at most MATCHING_BLOCK_ENTRIES array entries. Up
    to PERMUTATION_MAX every permutation's atom and weight totals are summed
    apart, as the distances are; above it least_matchings solves each draw.
    """
    k = G0.k
    atoms, weights = chain.atoms, chain.weights
    n = len(atoms)
    root_n = math.sqrt(float(N))
    d_mix, d_atom, d_weight = np.empty(n), np.empty(n), np.empty(n)
    # Per draw: k * k * q differences, and k * k! gathered costs up to PERMUTATION_MAX.
    per_draw = k * max(k * G0.q, math.factorial(min(k, PERMUTATION_MAX)))
    rows = max(1, MATCHING_BLOCK_ENTRIES // per_draw)
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        # [t, i, j] pairs the truth's atom i with atom j of draw t.
        dist = np.stack(
            [np.sqrt(((a - atoms[block]) ** 2).sum(axis=-1)) for a in G0.atoms], axis=1
        )
        gap = np.stack([np.abs(w - weights[block]) for w in G0.weights], axis=1)
        if k <= PERMUTATION_MAX:
            atom_total, weight_total = permutation_totals(dist), permutation_totals(gap)
            d_mix[block] = (root_n * atom_total + weight_total).min(axis=-1)
            best = (atom_total + weight_total).argmin(axis=-1)[:, None]
            d_atom[block] = np.take_along_axis(atom_total, best, axis=-1)[:, 0]
            d_weight[block] = np.take_along_axis(weight_total, best, axis=-1)[:, 0]
        else:
            # Rows are the draw's atoms here, as in distance_DN.
            d_mix[block] = least_matchings((root_n * dist + gap).swapaxes(1, 2))[0]
            perm = least_matchings(dist + gap)[1][:, :, None]
            d_atom[block] = np.take_along_axis(dist, perm, axis=2)[..., 0].sum(axis=1)
            d_weight[block] = np.take_along_axis(gap, perm, axis=2)[..., 0].sum(axis=1)
    return d_mix, d_atom, d_weight


def posterior_error_summary(chain, G0, N_bar):
    """Quantiles (0.5, 0.9, 0.95) of the sequence-length metric at N_bar,
    plus the atom and weight errors read off each draw's best matching to
    the truth. MismatchedSupportSize when the truth's (k, q) is not the
    draws'."""
    N_bar = check_real("N_bar", N_bar, 0, strict=True)
    if G0.atoms.shape != chain.atoms.shape[1:]:
        shapes = f"{chain.atoms.shape[1:]} vs {G0.atoms.shape}"
        raise MismatchedSupportSize(f"draw and truth (k, q) differ: {shapes}")
    d_mix, d_atom, d_weight = _matched_errors(chain, G0, N_bar)
    summary = {"N_bar": N_bar, "count": len(chain.atoms)}
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


def resolve_length_law(length_law):
    """The shortest length of a ("constant", n) or ("uniform", lo, hi) law,
    and its sampler of m lengths, (rng, m) -> list."""
    if not isinstance(length_law, (tuple, list)) or not length_law:
        raise InvalidParameter("length law must be a tuple")
    kind = length_law[0]
    lengths = [check_integer("each length in length_law", n, 1) for n in length_law[1:]]
    if kind == "constant":
        if len(lengths) != 1:
            raise InvalidParameter("constant length law needs one length >= 1")
        n = lengths[0]
        return n, lambda rng, m: [n] * m
    if kind == "uniform":
        if len(lengths) != 2:
            raise InvalidParameter("uniform length law needs bounds (lo, hi)")
        lo, hi = lengths
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
    ``workers``, None or an integer >= 1, has no effect.
    """
    if isinstance(rng, np.random.Generator):
        master = int(rng.integers(2**63))
    else:
        master = check_integer("rng", rng, 0)
    m_values = [check_integer("each entry of m_grid", m, 1) for m in m_grid]
    if len(m_values) < 2:
        raise InvalidParameter(
            "the size grid needs at least two sequence counts for a slope"
        )
    replicates = check_integer("replicates", replicates, 1)
    check_integer("workers", 1 if workers is None else workers, 1)
    if len(m_values) * replicates < 3:
        raise InvalidParameter("too few cells to fit a slope with a stderr")
    if not isinstance(config, MCMCConfig):
        raise InvalidParameter("config must be an MCMCConfig")
    min_length, draw_lengths = resolve_length_law(length_law)
    if kernel.points is not None:
        needed = 2 * G0.k - 1
    else:
        needed = 2
    if min_length < needed:
        raise InvalidParameter(
            f"minimum sequence length {min_length} is below the identifiable "
            f"length {needed} for this kernel"
        )
    if prior is None:
        if kernel.points is not None:
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
