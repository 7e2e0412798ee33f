"""Algebraic identifiability machinery for finite mixtures.

Generalized Vandermonde determinants over value/derivative rows, the
binary-kernel first-order linear system and its rank structure, an explicit
non-identifiability witness construction for short products, and numeric
first-order checks (Gram eigenvalues, degenerate-direction residuals) for
general kernel families.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .errors import (
    InvalidParameter,
    QuadratureNonConvergence,
    RootBracketingFailed,
    check_integer,
    check_real,
)
from .kernels import (
    BernoulliKernel,
    bracketed_roots,
    gl_nodes,
    segment_boundaries,
)
from .measures import MixingMeasure
from .products import estimate_divergence

RANK_TOL_FACTOR = 1e-12
NULLSPACE_RESIDUAL_TOL = 1e-8
WITNESS_MISMATCH_TOL = 1e-10
WITNESS_WEIGHT_SUM_TOL = 1e-9
ROOT_XTOL = 1e-14
GRID_TAIL_EPS = 1e-12
GRAM_BASE_PANELS = 8
GRAM_ORDER = 16
GRAM_MAX_DOUBLINGS = 6
GRAM_REL_CHANGE = 0.01
CHECK_PANELS = 32
CHECK_ORDER = 16


@dataclass(frozen=True, eq=False)
class LinearSystemReport:
    """A linear system with its numeric rank, extreme singular value, and
    an orthonormal nullspace basis (empty when full column rank). Reports
    compare by identity, as measures do."""

    matrix: np.ndarray
    rank: int
    smallest_singular_value: float
    nullspace: np.ndarray

    def __post_init__(self):
        cols = self.matrix.shape[1]
        if self.rank + self.nullspace.shape[1] != cols:
            raise InvalidParameter(
                "rank plus nullspace dimension must equal column count"
            )
        if self.nullspace.size:
            norm = np.linalg.norm(self.matrix, 2)
            residual = np.linalg.norm(self.matrix @ self.nullspace, axis=0)
            lengths = np.linalg.norm(self.nullspace, axis=0)
            if np.any(residual > NULLSPACE_RESIDUAL_TOL * norm * lengths):
                raise InvalidParameter(
                    "nullspace vectors do not annihilate the system"
                )


@dataclass(frozen=True)
class NonIdentWitness:
    """A distinct mixing measure matching all product moments at length n.

    The witness atoms interleave the original atoms from below; the moment
    system at n = 2k - 2 is satisfied to within the stated mismatch, so the
    two product mixtures at length n coincide while the mixing measures do
    not."""

    original: MixingMeasure
    witness: MixingMeasure
    n: int
    a: float
    moment_mismatch: float
    tv_at_n: float

    def __post_init__(self):
        if self.n != 2 * self.original.k - 2:
            raise InvalidParameter("witness length must be 2k - 2")
        if not self.a > 0:
            raise InvalidParameter("witness free parameter must be positive")
        if not self.moment_mismatch < WITNESS_MISMATCH_TOL:
            raise RootBracketingFailed(
                f"moment mismatch {self.moment_mismatch!r} exceeds "
                f"{WITNESS_MISMATCH_TOL!r}"
            )
        if not self.tv_at_n < WITNESS_MISMATCH_TOL:
            raise RootBracketingFailed(
                f"product TV {self.tv_at_n!r} at length {self.n} exceeds "
                f"{WITNESS_MISMATCH_TOL!r}"
            )
        orig = np.sort(self.original.atoms[:, 0])
        new = np.sort(self.witness.atoms[:, 0])
        lows = np.concatenate(([0.0], orig[:-1]))
        if not np.all((lows < new) & (new < orig)):
            raise RootBracketingFailed(
                "witness atoms do not interleave the original atoms"
            )


def _basis_polynomials(basis, k, n):
    x = Polynomial([0.0, 1.0])
    one_minus = Polynomial([1.0, -1.0])
    if basis == "monomial":
        return [x**j for j in range(2 * k)]
    if basis == "bernstein":
        if n is None:
            n = 2 * k - 1
        n = check_integer("n", n, 2 * k - 1)
        return [x**j * one_minus ** (n - j) for j in range(2 * k)]
    raise InvalidParameter(f"unknown basis {basis!r}")


def gen_vandermonde_det(xs, basis="monomial", n=None):
    """Determinant of the 2k x 2k matrix whose row pairs are the basis
    values and basis derivatives at each point.

    For the monomial basis, and for the bernstein basis at degree 2k - 1,
    the determinant equals the fourth power of the pairwise difference
    product (1 for a single point)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.ndim != 1 or xs.size < 1 or not np.all(np.isfinite(xs)):
        raise InvalidParameter("points must be a nonempty finite 1-D array")
    k = xs.size
    polys = _basis_polynomials(basis, k, n)
    derivs = [p.deriv() for p in polys]
    A = np.empty((2 * k, 2 * k))
    for m, point in enumerate(xs):
        for j in range(2 * k):
            A[2 * m, j] = polys[j](point)
            A[2 * m + 1, j] = derivs[j](point)
    return float(np.linalg.det(A))


def _check_binary_measure(G):
    if G.q != 1:
        raise InvalidParameter("binary mixing measure needs scalar atoms")
    th = G.atoms[:, 0]
    if not np.all((th > 0) & (th < 1)):
        raise InvalidParameter("binary atoms must lie strictly inside (0, 1)")
    return th


def bernoulli_first_order_system(G, n):
    """The (n+1) x 2k linear system of the first-order equation for a binary
    kernel over the success-count support {0..n}.

    Columns are ordered (a_1..a_k, b_1..b_k): first the derivative columns,
    then the value columns. Rank is min(n+1, 2k) for distinct atoms; the
    report carries a nullspace basis whenever the system is rank-deficient."""
    th = _check_binary_measure(G)
    n = check_integer("n", n, 1)
    s = np.arange(n + 1, dtype=float)[:, None]
    t = th[None, :]
    values = t**s * (1 - t) ** (n - s)
    derivs = s * t ** (s - 1) * (1 - t) ** (n - s) - (n - s) * t**s * (
        1 - t
    ) ** (n - s - 1)
    A = np.hstack([derivs, values])
    _, sing, vt = np.linalg.svd(A)
    tol = sing.max() * max(A.shape) * RANK_TOL_FACTOR
    rank = int((sing > tol).sum())
    return LinearSystemReport(A, rank, float(sing.min()), vt[rank:].T.copy())


def _binary_moment_vector(th, weights, n):
    j = np.arange(n + 1, dtype=float)[None, :]
    t = th[:, None]
    return (weights[:, None] * t**j * (1 - t) ** (n - j)).sum(axis=0)


def bernoulli_nonidentifiable_witness(G, a):
    """A mixing measure distinct from G whose binary product mixture at
    length n = 2k - 2 coincides with that of G.

    Atoms map to odds eta = theta / (1 - theta) and masses to
    y = p (1 - theta)^(2k-2). A degree <= k polynomial is interpolated
    through k + 1 prescribed values (the first controlled by the free
    parameter a > 0); its sign-change roots, bracketed in the interleaving
    intervals, are the witness odds, and the one-dimensional nullspace of
    the moment system supplies the witness masses. Distinct choices of a
    produce distinct witnesses."""
    th_raw = _check_binary_measure(G)
    k = G.k
    if k < 2:
        raise InvalidParameter("witness construction needs at least 2 atoms")
    a = check_real("a", a, 0, strict=True)
    n = 2 * k - 2
    order = np.argsort(th_raw)
    th = th_raw[order]
    p = G.weights[order]
    eta = th / (1 - th)
    y = p * (1 - th) ** n

    nodes = np.concatenate(([0.0], eta))
    # vals[1 + t] is the product over u != t, u < k - 1, of
    # (eta[k-1] - eta[u]) / (eta[t] - eta[u]), divided by y[t].
    gaps = eta[:-1, None] - eta[:-1]
    np.fill_diagonal(gaps, eta[-1] - eta[:-1])
    head = ((eta[-1] - eta[:-1]) / gaps).prod(axis=1) / y[:-1]
    vals = np.concatenate(([(-1.0) ** (k + 1) * a], head, [-1.0 / y[-1]]))
    if not np.all(np.isfinite(vals)):
        raise RootBracketingFailed("interpolation values are not finite")
    gaps = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(gaps, 1.0)
    bary = 1.0 / gaps.prod(axis=1)

    def poly(x):
        d = x[:, None] - nodes
        at_node = d == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            c = bary / d
            inner = (c * vals).sum(axis=1) / c.sum(axis=1)
        return np.where(at_node.any(axis=1), vals[at_node.argmax(axis=1)], inner)

    lows, highs = nodes[:-1], nodes[1:]
    narrow = highs - lows <= ROOT_XTOL
    flat = np.flatnonzero(narrow | (np.sign(vals[:-1]) * np.sign(vals[1:]) >= 0))
    if flat.size:
        lo, hi = lows[flat[0]], highs[flat[0]]
        raise RootBracketingFailed(f"no resolvable sign change over ({lo}, {hi})")
    roots = bracketed_roots(poly, lows, highs, ROOT_XTOL, maxiter=200)
    if not np.all((lows < roots) & (roots < highs)):
        raise RootBracketingFailed("root escaped its bracketing interval")

    full = np.concatenate([roots, eta])
    if np.unique(full).size != full.size:
        raise RootBracketingFailed("roots collide with existing odds")
    # y_new[i] is -y[k-1] times the product over m != i, m < 2k - 1, of
    # (eta[k-1] - full[m]) / (roots[i] - full[m]); full[i] is roots[i].
    others = full[:-1]
    gaps = roots[:, None] - others
    np.fill_diagonal(gaps, eta[-1] - roots)
    y_new = -y[-1] * ((eta[-1] - others) / gaps).prod(axis=1)
    if not np.all(np.isfinite(y_new)) or np.any(y_new >= 0):
        raise RootBracketingFailed("nullspace masses have the wrong sign")

    th_new = roots / (1 + roots)
    p_new = -y_new * (1 + roots) ** n
    total = p_new.sum()
    if not abs(total - 1.0) <= WITNESS_WEIGHT_SUM_TOL:
        raise RootBracketingFailed(f"witness masses sum to {total!r}, not 1")
    p_new = p_new / total
    witness = MixingMeasure(th_new[:, None], p_new)
    moments = _binary_moment_vector(th_new, p_new, n) - _binary_moment_vector(th, p, n)
    mismatch = float(np.max(np.abs(moments)))
    tv = estimate_divergence(G, witness, BernoulliKernel(), n, "tv").value
    return NonIdentWitness(
        original=G,
        witness=witness,
        n=n,
        a=a,
        moment_mismatch=mismatch,
        tv_at_n=tv,
    )


def _grid_array(grid_spec, key):
    if key not in grid_spec:
        raise InvalidParameter(f"explicit grid needs {key}")
    try:
        return np.atleast_1d(np.asarray(grid_spec[key], dtype=float))
    except (TypeError, ValueError) as err:
        raise InvalidParameter(f"grid {key} must be numbers: {err}") from err


def _explicit_grid(grid_spec, need_weights):
    points = _grid_array(grid_spec, "points")
    if points.ndim != 1 or points.size == 0 or not np.all(np.isfinite(points)):
        raise InvalidParameter("grid points must be a finite 1-D array")
    if not need_weights:
        return points, None
    weights = _grid_array(grid_spec, "weights")
    if weights.shape != points.shape or np.any(weights < 0):
        raise InvalidParameter("grid weights must align with points")
    return points, weights


def _feature_matrix(kernel, atoms, points):
    """Columns per atom: the density, then its q parameter gradients."""
    dens = kernel.density(points, atoms)[:, None, :]
    grads = kernel.grad_density(points, atoms)
    return np.concatenate([dens, grads], axis=1).reshape(-1, points.size).T


def _gram_eigenvalue(kernel, atoms, points, weights):
    phi = _feature_matrix(kernel, atoms, points)
    gram = phi.T @ (phi * weights[:, None])
    diag = np.diag(gram).copy()
    if np.any(diag <= 0):
        return 0.0
    scale = 1.0 / np.sqrt(diag)
    normalized = gram * scale[:, None] * scale[None, :]
    return float(np.linalg.eigvalsh(normalized)[0])


def first_order_gram(kernel, atoms, grid_spec="auto"):
    """Smallest eigenvalue of the unit-diagonal Gram matrix of the mixture
    component densities and their parameter gradients at the given atoms.

    A value above tolerance certifies linear independence on the grid; a
    value near zero flags a candidate first-order degeneracy. The automatic
    grid enumerates the points of discrete kernels and lays Gauss-Legendre
    panels over tail-truncated segments for continuous ones, doubling panel
    counts until the eigenvalue stabilizes within 1%."""
    atoms = kernel.check_theta(np.atleast_2d(atoms))
    if isinstance(grid_spec, dict):
        points, weights = _explicit_grid(grid_spec, need_weights=True)
        return _gram_eigenvalue(kernel, atoms, points, weights)
    if grid_spec != "auto":
        raise InvalidParameter("grid_spec must be 'auto' or a points dict")
    if kernel.points is not None:
        ones = np.ones(kernel.points.size)
        return _gram_eigenvalue(kernel, atoms, kernel.points, ones)
    bounds = segment_boundaries(kernel, atoms, GRID_TAIL_EPS)
    panels = GRAM_BASE_PANELS
    previous = None
    for _ in range(GRAM_MAX_DOUBLINGS + 1):
        points, weights = gl_nodes(bounds, panels, GRAM_ORDER)
        value = _gram_eigenvalue(kernel, atoms, points, weights)
        if previous is not None and abs(value - previous) <= (
            GRAM_REL_CHANGE * max(abs(value), 1e-12)
        ):
            return value
        previous = value
        panels *= 2
    message = "Gram eigenvalue did not stabilize under panel doubling"
    raise QuadratureNonConvergence(message)


def parse_direction(kernel, k, direction):
    flat = np.atleast_1d(np.asarray(direction, dtype=float))
    expected = k * (kernel.q + 1)
    if flat.shape != (expected,) or not np.all(np.isfinite(flat)):
        message = f"direction must be a finite vector of length {expected}"
        raise InvalidParameter(message)
    a = flat[: k * kernel.q].reshape(k, kernel.q)
    b = flat[k * kernel.q :]
    if np.linalg.norm(flat) == 0:
        raise InvalidParameter("direction must be nonzero")
    b_scale = max(1.0, np.abs(b).sum())
    if abs(b.sum()) > 1e-12 * b_scale:
        raise InvalidParameter("mass coefficients must sum to zero")
    return a, b


def degenerate_direction_check(kernel, G0, direction, grid="auto"):
    """Largest absolute value over the grid of the first-order combination
    sum_i (a_i . grad f(x|theta_i) + b_i f(x|theta_i)), normalized by the
    mixture density scale and the direction scale.

    Near-zero output certifies the direction as a first-order degeneracy of
    the atom set; a generic direction yields an order-one value."""
    atoms = kernel.check_theta(G0.atoms)
    a, b = parse_direction(kernel, atoms.shape[0], direction)
    if isinstance(grid, dict):
        points, _ = _explicit_grid(grid, need_weights=False)
    elif grid == "auto":
        if kernel.points is not None:
            points = kernel.points
        else:
            bounds = segment_boundaries(kernel, atoms, GRID_TAIL_EPS)
            points, _ = gl_nodes(bounds, CHECK_PANELS, CHECK_ORDER)
    else:
        raise InvalidParameter("grid must be 'auto' or a points dict")
    dens = kernel.density(points, atoms)
    grads = kernel.grad_density(points, atoms)
    residual = b @ dens + np.einsum("iq,iqn->n", a, grads)
    density_scale = float(dens.sum(axis=0).max())
    direction_scale = float((np.linalg.norm(a, axis=1) + np.abs(b)).sum())
    return float(np.abs(residual).max() / (density_scale * direction_scale))
