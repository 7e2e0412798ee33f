"""Numerical probes of inverse bounds between divergences and distances.

Each probe walks a shrinking path of mixing measures, tabulates a
divergence-to-distance ratio along the path, and classifies the limit
behavior: a ratio that collapses toward zero shows the divergence cannot
control the distance at that sequence length, while a ratio bounded away
from zero is consistent with an inverse bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    ConvergenceError,
    InvalidMeasure,
    InvalidParameter,
    InvalidPath,
    check_integer,
    check_real,
)
from .identifiability import parse_direction
from .kernels import LocScaleExponentialKernel
from .measures import (
    MixingMeasure,
    distance_DN,
    distance_Dr1r2,
    wasserstein,
)
from .products import (
    MC_DEFAULT_BUDGET,
    MC_MIN_BUDGET,
    DivergenceEstimate,
    estimate_divergence,
    hellinger_upper_bound,
    uses_monte_carlo,
)

DEFAULT_ELL_GRID = (10.0, 100.0, 1000.0)
DEFAULT_N_GRID = (4, 16, 64)
DEFAULT_EPS_GRID = (0.05, 0.1, 0.2, 0.4)
PATH_IDENTITY_TOL = 1e-12
VANISH_FACTOR = 0.2
PLATEAU_BAND = (0.5, 2.0)
MINIMA_DROP_FACTOR = 0.8
MINIMA_PLATEAU_BAND = (0.8, 1.25)
STDERR_SIGMAS = 3.0
VARIANCE_GUARD_FRACTION = 0.1
RATIO_CONSISTENCY_TOL = 1e-12


@dataclass(frozen=True)
class ProbeRow:
    """One table cell: a numerator/denominator pair at one path position.

    ``series`` names the ratio family within the probe, ``index`` is the
    path position (a shrink parameter or a sequence length), and ``method``
    records how the numerator was computed. A Monte Carlo numerator carries
    its standard error; every other method is exact up to quadrature
    tolerance and must report stderr zero.
    """

    series: str
    index: float
    numerator: float
    numerator_stderr: float
    denominator: float
    ratio: float
    method: str

    def __post_init__(self):
        check_real("denominator", self.denominator, 0, strict=True)
        check_real("numerator", self.numerator, 0)
        check_real("numerator_stderr", self.numerator_stderr, 0)
        if self.method != "monte-carlo" and self.numerator_stderr != 0.0:
            raise InvalidParameter("exact numerators must report stderr zero")
        expected = self.numerator / self.denominator
        if abs(self.ratio - expected) > RATIO_CONSISTENCY_TOL * max(1.0, expected):
            raise InvalidParameter("ratio must equal numerator / denominator")

    @property
    def ratio_stderr(self):
        return self.numerator_stderr / self.denominator


@dataclass(frozen=True)
class ProbeReport:
    """A probe outcome: parameter record, ratio table, and verdict flags."""

    name: str
    params: dict
    rows: tuple
    verdicts: dict

    def __post_init__(self):
        if not self.rows:
            raise InvalidParameter("a probe report needs at least one row")
        for row in self.rows:
            if not isinstance(row, ProbeRow):
                raise InvalidParameter("rows must be ProbeRow instances")
        object.__setattr__(self, "rows", tuple(self.rows))

    def series(self, name):
        return tuple(row for row in self.rows if row.series == name)

    def row_records(self):
        """Rows as flat dicts, one per cell, for tabular emission."""
        return [{"probe": self.name, **vars(row)} for row in self.rows]

    def verdict_envelope(self):
        """JSON-serializable summary of parameters and verdicts."""
        return {"probe": self.name, "params": self.params, "verdicts": self.verdicts}


def _make_row(series, index, where, numerator, denominator):
    """The ratio row at path position ``where`` (as ``ell=100``), its
    denominator checked before the division. The numerator is a
    DivergenceEstimate, or a float for an upper bound."""
    if not denominator > 0.0:
        raise InvalidPath(f"the distance underflows to 0 at {where}")
    value, stderr, method = numerator, 0.0, "bound"
    if isinstance(numerator, DivergenceEstimate):
        value, stderr, method = numerator.value, numerator.stderr, numerator.method
    value, denominator = float(value), float(denominator)
    return ProbeRow(
        series=series, index=float(index), numerator=value,
        numerator_stderr=float(stderr), denominator=denominator,
        ratio=value / denominator, method=method,
    )


def _check_ell_grid(ell_grid):
    grid = [check_real("each entry of ell_grid", e, 0, strict=True) for e in ell_grid]
    if len(grid) < 2:
        raise InvalidParameter("the shrink grid needs at least two values")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParameter("the shrink grid must be strictly increasing")
    return grid


def _series_verdict(rows):
    """Vanishing and bounded-away flags for one sorted ratio series.

    Vanishing requires the last ratio to fall below a fifth of the first
    and, for noisy numerators, the drop to exceed three combined standard
    errors. Bounded-away requires every ratio to sit inside the plateau
    band around the series median, with the same three-sigma slack.
    """
    ratios = [row.ratio for row in rows]
    errs = [row.ratio_stderr for row in rows]
    first, last = ratios[0], ratios[-1]
    gap = STDERR_SIGMAS * math.hypot(errs[0], errs[-1])
    vanishing = first > 0.0 and last / first < VANISH_FACTOR and first - last > gap
    median = float(np.median(ratios))
    lo, hi = PLATEAU_BAND
    in_band = all(
        lo * median - STDERR_SIGMAS * e <= r <= hi * median + STDERR_SIGMAS * e
        for r, e in zip(ratios, errs)
    )
    bounded_away = (not vanishing) and median > 0.0 and in_band
    return {"vanishing": vanishing, "bounded_away": bounded_away}


def _path_point(kernel, atoms, weights, where):
    """The path's mixing measure at position ``where`` (as ``ell=100``),
    refused when an atom leaves the parameter box or the weights leave the
    open simplex."""
    if not np.all(kernel.in_box(atoms)):
        raise InvalidPath(f"an atom leaves the parameter box at {where}")
    try:
        return MixingMeasure(atoms, weights)
    except InvalidMeasure as exc:
        raise InvalidPath(f"invalid measure at {where}: {exc}") from exc


def _direction_path(kernel, G0, a, b, grid):
    """The checked measures G0 + (a, b) / ell over the shrink grid, the
    direction first scaled so one unit of path length costs one unit of
    matching distance: atom shifts are divided by their weights, then the
    whole direction by the total of atom-shift norms and weight shifts."""
    a = a / G0.weights[:, None]
    scale = float(np.linalg.norm(a, axis=1).sum() + np.abs(b).sum())
    a, b = a / scale, b / scale
    return [
        _path_point(kernel, G0.atoms + a / ell, G0.weights + b / ell, f"ell={ell:g}")
        for ell in grid
    ]


def _path_numerator(kernel, G_ell, G0, N, which, budget, seed, workers, label):
    """Divergence numerator with a pilot-based refusal for noisy cells.

    When the estimator ladder falls through to Monte Carlo (see
    ``uses_monte_carlo``), a small pilot predicts the standard error at the
    full budget; the cell is refused if that prediction exceeds a tenth of
    the predicted ratio, since a verdict from such a cell would be noise.
    """
    if uses_monte_carlo(kernel, N):
        pilot = estimate_divergence(
            G_ell, G0, kernel, N, which,
            budget=MC_MIN_BUDGET, seed=seed, workers=workers,
            label=label + "/pilot",
        )
        predicted = pilot.stderr * math.sqrt(MC_MIN_BUDGET / budget)
        if predicted > VARIANCE_GUARD_FRACTION * pilot.value:
            raise BudgetExceeded(
                f"predicted stderr {predicted:.3g} exceeds "
                f"{VARIANCE_GUARD_FRACTION:.0%} of the predicted value "
                f"{pilot.value:.3g} at {label}; raise the budget or drop "
                "the cell"
            )
    return estimate_divergence(
        G_ell, G0, kernel, N, which,
        budget=budget, seed=seed, workers=workers, label=label,
    )


def _identity_onset(grid, denominators):
    """Smallest grid value from which the matching distance equals the
    reciprocal shrink parameter, within tolerance, through the end of the
    grid. The identity must hold at the final value."""
    flags = [
        abs(d - 1.0 / ell) <= PATH_IDENTITY_TOL
        for ell, d in zip(grid, denominators)
    ]
    if not flags[-1]:
        raise ConvergenceError(
            "path normalization identity failed at the largest shrink value"
        )
    idx = len(flags)
    while idx > 0 and flags[idx - 1]:
        idx -= 1
    return grid[idx]


def weight_only_direction(G0, i=0, j=1):
    """Direction that trades weight between atoms i and j, atoms fixed.

    Along the induced path the mixture difference is a fixed signed measure
    shrinking linearly, so the divergence-to-distance ratio is constant and
    never exceeds half the divergence between the two atom distributions.
    """
    i, j = check_integer("i", i, 0), check_integer("j", j, 0)
    if i == j or not (i < G0.k and j < G0.k):
        raise InvalidParameter("atom indices must be distinct and in range")
    flat = np.zeros(G0.k * (G0.q + 1))
    flat[G0.k * G0.q + i] = 1.0
    flat[G0.k * G0.q + j] = -1.0
    return flat


def inverse_ratio_probe(
    kernel,
    G0,
    direction,
    N,
    ell_grid=DEFAULT_ELL_GRID,
    divergence="tv",
    budget=MC_DEFAULT_BUDGET,
    seed=0,
    workers=None,
):
    """Ratio of the N-product divergence to the matching distance along a
    normalized perturbation path of the base measure.

    The direction is a flat vector of per-atom shifts followed by per-atom
    weight shifts summing to zero. After normalization the matching
    distance to the base measure equals the reciprocal shrink parameter,
    so the table directly exposes whether the divergence dominates the
    distance or collapses faster.
    """
    grid = _check_ell_grid(ell_grid)
    N = check_integer("N", N, 1)
    budget = check_integer("budget", budget, 1)
    seed = check_integer("seed", seed, 0)
    kernel.check_theta(G0.atoms)
    a, b = parse_direction(kernel, G0.k, direction)
    rows = []
    for ell, G_ell in zip(grid, _direction_path(kernel, G0, a, b, grid)):
        d1 = distance_DN(G_ell, G0, 1)
        est = _path_numerator(
            kernel, G_ell, G0, N, divergence, budget, seed, workers,
            label=f"path/{divergence}/N{N}/ell{ell:g}",
        )
        rows.append(_make_row("ratio", ell, f"ell={ell:g}", est, d1))
    onset = _identity_onset(grid, [row.denominator for row in rows])
    params = {
        "kernel": kernel.name,
        "G0": G0.to_json(),
        "direction": np.asarray(direction, dtype=float).tolist(),
        "N": N,
        "divergence": divergence,
        "ell_grid": grid,
        "identity_from_ell": onset,
        "budget": budget,
        "seed": seed,
    }
    verdicts = {"ratio": _series_verdict(rows)}
    return ProbeReport("inverse_ratio", params, tuple(rows), verdicts)


def impact_probe_Dr(
    kernel,
    G0,
    direction,
    r,
    ell_grid=DEFAULT_ELL_GRID,
    budget=MC_DEFAULT_BUDGET,
    seed=0,
    workers=None,
):
    """Single-observation divergence against the order-r matching distance
    and the order-r transport cost along the same normalized path.

    Requires a direction that actually moves weights: with no weight
    component both denominators shrink at order r and the comparison loses
    its meaning.
    """
    grid = _check_ell_grid(ell_grid)
    r = check_real("r", r, 1)
    budget = check_integer("budget", budget, 1)
    seed = check_integer("seed", seed, 0)
    kernel.check_theta(G0.atoms)
    a, b = parse_direction(kernel, G0.k, direction)
    if not np.any(b != 0.0):
        raise InvalidParameter("the direction must move at least one weight")
    rows_dr, rows_wr = [], []
    for ell, G_ell in zip(grid, _direction_path(kernel, G0, a, b, grid)):
        est = _path_numerator(
            kernel, G_ell, G0, 1, "tv", budget, seed, workers,
            label=f"path/tv/N1/ell{ell:g}",
        )
        d_r = distance_Dr1r2(G_ell, G0, r, 1)
        w_r = wasserstein(G_ell, G0, r) ** r
        rows_dr.append(_make_row("over_Dr1", ell, f"ell={ell:g}", est, d_r))
        rows_wr.append(_make_row("over_Wr_r", ell, f"ell={ell:g}", est, w_r))
    params = {
        "kernel": kernel.name,
        "G0": G0.to_json(),
        "direction": np.asarray(direction, dtype=float).tolist(),
        "r": r,
        "ell_grid": grid,
        "budget": budget,
        "seed": seed,
    }
    verdicts = {
        "over_Dr1": _series_verdict(rows_dr),
        "over_Wr_r": _series_verdict(rows_wr),
    }
    return ProbeReport("impact_Dr", params, tuple(rows_dr + rows_wr), verdicts)


def curvature_probe_locscale(G0, ell_grid=DEFAULT_ELL_GRID):
    """Two-path probe for the shifted-exponential family with a shared
    left endpoint on the first two atoms.

    Builds, for each shrink value, a pair of measures that approach each
    other while both drift from the base: the pair ratio (divergence
    between the two moving measures over their matching distance)
    collapses, while the single ratio against the base stays bounded away
    from zero. The base measure must have equal first and second endpoints,
    distinct scales, and weights proportional to the scales.
    """
    kernel = LocScaleExponentialKernel()
    grid = _check_ell_grid(ell_grid)
    if G0.q != 2 or G0.k < 2:
        raise InvalidParameter(
            "the base measure needs at least two endpoint-scale atoms"
        )
    kernel.check_theta(G0.atoms)
    (xi1, sig1), (xi2, sig2) = G0.atoms[0], G0.atoms[1]
    p1, p2 = G0.weights[0], G0.weights[1]
    scale = max(1.0, abs(xi1), sig1, sig2)
    if abs(xi1 - xi2) > 1e-12 * scale:
        raise InvalidParameter("the first two atoms must share their endpoint")
    if abs(sig1 - sig2) <= 1e-12 * scale:
        raise InvalidParameter("the first two atoms must have distinct scales")
    psi = p1 / sig1
    if abs(psi - p2 / sig2) > 1e-12:
        raise InvalidParameter(
            "the first two weights must be proportional to their scales"
        )
    pair_rows, single_rows = [], []
    for ell in grid:
        where = f"ell={ell:g}"
        c = 1.0 / ((2.0 + 2.0 * psi) * ell)
        atoms_g, weights_g = G0.atoms.copy(), G0.weights.copy()
        atoms_g[0, 0] = xi1 - c
        weights_g[:2] = p1 + psi * c, p2 - psi * c
        atoms_h = G0.atoms.copy()
        atoms_h[1] = (xi1 - c, sig2)
        G_ell = _path_point(kernel, atoms_g, weights_g, where)
        H_ell = _path_point(kernel, atoms_h, G0.weights, where)
        d_pair = distance_DN(G_ell, H_ell, 1)
        pair_est = estimate_divergence(G_ell, H_ell, kernel, 1, "tv")
        pair_rows.append(_make_row("pair", ell, where, pair_est, d_pair))
        d_single = distance_DN(G_ell, G0, 1)
        single_est = estimate_divergence(G_ell, G0, kernel, 1, "tv")
        single_rows.append(_make_row("single", ell, where, single_est, d_single))
    onset = _identity_onset(grid, [row.denominator for row in pair_rows])
    params = {
        "kernel": kernel.name,
        "G0": G0.to_json(),
        "psi": float(psi),
        "ell_grid": grid,
        "identity_from_ell": onset,
    }
    verdicts = {
        "pair": _series_verdict(pair_rows),
        "single": _series_verdict(single_rows),
    }
    return ProbeReport(
        "curvature_locscale", params, tuple(pair_rows + single_rows), verdicts
    )


def sqrtN_sharpness_probe(
    kernel,
    G0,
    psi_exponent,
    N_grid=DEFAULT_N_GRID,
    eps_grid=DEFAULT_EPS_GRID,
    atom_index=0,
    coordinate=0,
):
    """Scaling probe for the square-root sequence-length factor in the
    matching distance.

    For each sequence length N the numerator is the product-divergence
    upper bound along a single-atom perturbation, and the denominator is
    the matching distance with the sequence length inflated to
    N**psi_exponent. The per-N minimum over perturbation sizes collapses
    like the square root of the deflation factor when the exponent
    exceeds one, and stays flat at exponent one.
    """
    psi_exponent = check_real("psi_exponent", psi_exponent, 1)
    lengths = [check_real("each entry of N_grid", n, 1) for n in N_grid]
    if any(n != int(n) for n in lengths):
        raise InvalidParameter("each entry of N_grid must be an integral value")
    n_values = [int(n) for n in lengths]
    if len(n_values) < 2:
        raise InvalidParameter("the N grid needs at least two lengths")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise InvalidParameter("the N grid must be strictly increasing")
    try:
        inflated = [float(n) ** psi_exponent for n in n_values]
    except OverflowError as err:
        raise InvalidParameter(
            f"N**psi_exponent overflows at psi_exponent={psi_exponent!r}"
        ) from err
    eps_values = [check_real("each entry of eps_grid", e) for e in eps_grid]
    kernel.check_theta(G0.atoms)
    atom_index = check_integer("atom_index", atom_index, 0)
    coordinate = check_integer("coordinate", coordinate, 0)
    if not (atom_index < G0.k and coordinate < G0.q):
        raise InvalidParameter("perturbed atom or coordinate out of range")
    excluded = [e for e in eps_values if e == 0.0]
    active = [e for e in eps_values if e != 0.0]
    if not active:
        raise InvalidParameter("eps_grid needs a nonzero perturbation size")
    unit = np.zeros_like(G0.atoms)
    unit[atom_index, coordinate] = 1.0
    path = [
        _path_point(kernel, G0.atoms + eps * unit, G0.weights, f"eps={eps:g}")
        for eps in active
    ]
    rows, minima = [], []
    for n, psi_n in zip(n_values, inflated):
        cells = [
            _make_row(
                f"N={n}", eps, f"N={n}, eps={eps:g}",
                hellinger_upper_bound(G_eps, G0, kernel, n),
                distance_DN(G_eps, G0, psi_n),
            )
            for eps, G_eps in zip(active, path)
        ]
        rows += cells
        minima.append({"N": n, "minimum": min(row.ratio for row in cells)})
    mins = [entry["minimum"] for entry in minima]
    lo, hi = MINIMA_PLATEAU_BAND
    decreasing = all(b < a for a, b in zip(mins, mins[1:]))
    vanishing = bool(decreasing and mins[-1] < MINIMA_DROP_FACTOR * mins[0])
    plateau = bool(all(lo * mins[0] <= m <= hi * mins[0] for m in mins))
    params = {
        "kernel": kernel.name,
        "G0": G0.to_json(),
        "psi_exponent": psi_exponent,
        "N_grid": n_values,
        "eps_grid": eps_values,
        "atom_index": atom_index,
        "coordinate": coordinate,
        "excluded_epsilons": excluded,
    }
    verdicts = {
        "minima": minima,
        "vanishing": vanishing,
        "bounded_away": plateau and not vanishing,
    }
    return ProbeReport("sqrtN_sharpness", params, tuple(rows), verdicts)


def lecam_two_point_bound(m, N, gamma, beta0, a):
    """Two-point testing lower bound for estimating a mixing measure from
    m sequences of length N: (a/4) * ((1-a) / (gamma*sqrt(m*N)))**(1/beta0).

    gamma and beta0 calibrate how fast the divergence between the two test
    points grows with their separation; a sets the separation level.
    """
    m, N, gamma, beta0 = (
        check_real(name, value, 0, strict=True)
        for name, value in (("m", m), ("N", N), ("gamma", gamma), ("beta0", beta0))
    )
    check_real("a", a, 0, 1, strict=True)
    scale = gamma * math.sqrt(m * N)
    if scale == 0.0:
        raise InvalidParameter("gamma * sqrt(m * N) underflows to 0; raise m, N or gamma")
    try:
        half_sep = ((1.0 - a) / scale) ** (1.0 / beta0)
    except OverflowError as err:
        raise InvalidParameter(f"the separation overflows at beta0={beta0!r}") from err
    return (a / 4.0) * half_sep
