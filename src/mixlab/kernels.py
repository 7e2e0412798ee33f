"""Parametric kernel families: densities, samplers, gradients, divergences.

Built-in families cover the binary kernel, Gaussian location, gamma,
uniform scale, location-scale exponential, and two composite kernels
(finite Gaussian location mixture, two-component Beta mixture) that carry
polynomial moment maps with closed-form Jacobian determinants.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    BudgetExceeded,
    ConvergenceError,
    DegenerateXi,
    InvalidParameter,
    MidpointOutsideDomain,
    NonDifferentiablePoint,
    QuadratureNonConvergence,
    RootBracketingFailed,
    check_integer,
    check_real,
)

FD_STEP = 1e-6
TAIL_EPS = 1e-13
PANEL_TOL = 1e-10
PANEL_TARGET = 1e-8
PANEL_ULPS = 64
# Bisecting a panel 1100 times takes it below the smallest subnormal spacing.
PANEL_LEVELS = 1100
PANEL_OPEN_MAX = 4096
CROSSING_SCAN = 128
CROSSING_XTOL = 2e-12
ROOT_RTOL = 4 * np.finfo(float).eps
# Newton steps on a gamma quantile move log x by at most 1, and end below this.
QUANTILE_STEP_TOL = 1e-10
QUANTILE_STEPS = 100
# The incomplete-gamma series and continued fraction take about 7 sqrt(shape)
# terms; the cap keeps every shape up to 1e10 and refuses larger ones.
GAMMA_TAIL_TERMS = 10**6
# The count law Binomial(trials, theta) enumerates trials + 1 support points.
BINOMIAL_TRIALS_MAX = 10**6

# The standard normal quantile, by Wichura's algorithm AS241.
norm_ppf = NormalDist().inv_cdf
# Gaussian scales whose square is a positive normal float.
SIGMA_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))


def gammaln(x):
    """log|Gamma(x)| elementwise by math.lgamma, +inf at the poles 0, -1,
    -2, ...; once per distinct value, since data and grids repeat values.
    A dict dedupes: np.unique costs about 10 us even on the two-atom
    arrays that most calls pass."""
    flat = np.asarray(x, dtype=float).ravel().tolist()
    memo = {v: math.lgamma(v) if v > 0 or v % 1 else math.inf for v in set(flat)}
    return np.array([memo[v] for v in flat]).reshape(np.shape(x))


def betaln(a, b):
    """log|B(a, b)| from three log-gammas."""
    return gammaln(a) + gammaln(b) - gammaln(a + b)


def digamma(x):
    """psi(x) for x > 0: the recurrence psi(x) = psi(x + 1) - 1/x up to
    x >= 10, then the asymptotic series, whose first omitted term is below
    1e-16 there."""
    x = np.asarray(x, dtype=float)
    steps = x[..., None] + np.arange(10.0)
    small = steps < 10
    out = -np.where(small, 1 / steps, 0.0).sum(axis=-1)
    x = x + small.sum(axis=-1)
    r = 1 / x**2
    tail = 1 / 132 - r * (691 / 32760 - r / 12)
    tail = r / 12 - r * r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r * tail)))
    return out + np.log(x) - 0.5 / x - tail


def _log_gamma_tails(a, u):
    """log(x f(x)) for the Gamma(a, 1) density f at x = e^u, and log P(a, x)
    and log Q(a, x) of the regularized incomplete gamma P and Q = 1 - P:
    from the series of P below a + 1, else from Lentz's continued fraction
    of Q (DiDonato & Morris 1986, ACM TOMS 12)."""
    x = math.exp(u)
    lead = a * u - x - math.lgamma(a)
    if x < a + 1:
        term = total = 1 / a
        n = a
        for _ in range(GAMMA_TAIL_TERMS):
            if not term > total * 1e-17:
                break
            n += 1
            term *= x / n
            total += term
        else:
            raise ConvergenceError(f"incomplete gamma series unresolved at shape {a!r}")
        log_p = lead + math.log(total)
        return lead, log_p, math.log1p(-math.exp(log_p))
    b = x + 1 - a
    c, d = math.inf, 1 / b
    h, delta = d, 0.0
    for i in range(1, GAMMA_TAIL_TERMS + 1):
        if not abs(delta - 1) > 3e-16:
            break
        b += 2
        d = 1 / (b + i * (a - i) * d)
        c = b + i * (a - i) / c
        delta = c * d
        h *= delta
    else:
        raise ConvergenceError(f"incomplete gamma fraction unresolved at shape {a!r}")
    log_q = lead + math.log(h)
    return lead, math.log1p(-math.exp(log_q)), log_q


def gamma_quantile(a, p, upper=False):
    """The x > 0 with P(a, x) = p, or with Q(a, x) = p when upper, for
    0 < p < 1. Newton steps in log x on the log of the smaller tail, which
    is concave in log x. They start from the larger of the Wilson-Hilferty
    point and the root of x^a / Gamma(a + 1) = P(a, x), which lies below x
    because P(a, x) <= x^a / Gamma(a + 1)."""
    a = float(a)
    if p > 0.5:
        p, upper = 1 - p, not upper
    target = math.log(p)
    z = -norm_ppf(p) if upper else norm_ppf(p)
    cube = 1 - 1 / (9 * a) + z / (3 * math.sqrt(a))
    below = ((math.log1p(-p) if upper else target) + math.lgamma(a + 1)) / a
    u = max(below, math.log(a * cube**3) if cube > 0 else -math.inf)
    for _ in range(QUANTILE_STEPS):
        lead, log_p, log_q = _log_gamma_tails(a, u)
        if upper:
            step = (log_q - target) * math.exp(log_q - lead)
        else:
            step = (target - log_p) * math.exp(log_p - lead)
        u += min(max(step, -1.0), 1.0)
        if abs(step) < QUANTILE_STEP_TOL:
            return math.exp(u)
    raise ConvergenceError(f"gamma quantile of {p!r} at shape {a!r} unresolved")


@lru_cache(maxsize=None)
def gauss_legendre(order):
    """The order-point Gauss-Legendre rule on [-1, 1] as read-only nodes
    and weights. Callers use a few fixed orders, which bounds the cache."""
    nodes, weights = leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class ExpFamilySpec:
    """Vectorised exponential-family structure: stats holds the d
    coordinates of the sufficient statistic, each keeping x.shape; natural
    maps atoms (..., q) to (..., d), log_partition and in_natural_space map
    (..., d) to (...), log_carrier keeps x.shape."""

    stats: tuple
    log_partition: object
    log_carrier: object
    natural: object
    in_natural_space: object

    def stat(self, x):
        """The statistic of points x, of shape x.shape + (d,)."""
        return np.stack([coord(x) for coord in self.stats], axis=-1)

    def summed(self, X):
        """Summed statistic S (..., d) and summed log-carrier (...) of the
        rows along the last axis of X, each coordinate summed on its own.
        A row with zero density (an infinite log-carrier) gets S = 0, so
        every eta S - n A(eta) + carrier of it is -inf, never nan."""
        # einsum sums short rows about 3x faster than sum(axis=-1).
        with np.errstate(divide="ignore", invalid="ignore"):
            carrier = np.einsum("...i->...", self.log_carrier(X))
            S = np.stack(
                [np.einsum("...i->...", coord(X)) for coord in self.stats], axis=-1
            )
        S[~np.isfinite(carrier)] = 0.0
        return S, carrier

    def log_density(self, x, theta):
        eta = self.natural(np.asarray(theta, dtype=float))
        return self.stat(x) @ eta - self.log_partition(eta) + self.log_carrier(x)


@dataclass(frozen=True, eq=False)
class MomentMapReport:
    """Moment vector, its Jacobian, and the two determinant evaluations.
    Reports compare by identity, as measures do."""

    lam: np.ndarray
    jacobian: np.ndarray
    det_closed: float
    det_fd: float

    def __post_init__(self):
        rel = abs(self.det_closed - self.det_fd) / max(1.0, abs(self.det_closed))
        if not rel < 1e-4:
            raise ConvergenceError(
                f"closed-form and finite-difference determinants disagree: "
                f"{self.det_closed!r} vs {self.det_fd!r}"
            )


def logsumexp(a, axis=-1):
    """log(sum(exp(a))) along an axis; -inf where every term is -inf."""
    mx = a.max(axis=axis, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(mx, axis=axis) + np.log(np.exp(a - mx).sum(axis=axis))


def _central_difference(fun, theta):
    """Central differences of fun in each coordinate of atoms of shape
    (..., q), one array per coordinate."""
    theta = np.asarray(theta, dtype=float)
    batch = theta.ndim - 1
    columns = []
    for i in range(theta.shape[-1]):
        h = FD_STEP * np.maximum(1.0, np.abs(theta[..., i]))
        up = theta.copy()
        dn = theta.copy()
        up[..., i] += h
        dn[..., i] -= h
        diff = np.asarray(fun(up) - fun(dn))
        columns.append(diff / (2 * h.reshape(h.shape + (1,) * (diff.ndim - batch))))
    return columns


class KernelFamily:
    """Base class: a parametric family of probability densities on a data space.

    Each public operation checks all its atoms against the box (``in_box``)
    once, then calls the private hook of the same name with one argument per
    atom coordinate (``_closed_divergence`` gets the two atoms); the hooks
    hold only the family's arithmetic. Subclasses write ``_log_density``,
    ``_sample`` and ``_mean``, and may replace the defaults of the others.
    ``points`` is the array of the support for discrete kernels and None
    for continuous ones.

    ``log_density``, ``density`` and ``grad_density`` broadcast: atoms of
    shape (..., q) against points of any shape give
    ``atoms.shape[:-1] + x.shape`` (gradients ``atoms.shape[:-1] + (q,) +
    x.shape``), and their hooks get coordinates shaped
    ``atoms.shape[:-1] + (1,) * x.ndim``. The other operations take one atom.
    """

    name = "abstract"
    q = 0
    points = None
    expfam = None

    def in_box(self, theta):
        """Boolean array over theta.shape[:-1]: which atoms have finite
        coordinates inside the family's box."""
        with np.errstate(invalid="ignore"):
            return np.isfinite(theta).all(axis=-1) & self._in_box(theta)

    def _in_box(self, theta):
        """The family's box for atoms with finite coordinates."""
        return np.ones(theta.shape[:-1], dtype=bool)

    def check_theta(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape[-1] != self.q:
            raise InvalidParameter(
                f"{self.name}: parameter must have dimension {self.q}"
            )
        inside = np.asarray(self.in_box(theta))
        if not inside.all():
            bad = theta.reshape(-1, self.q)[~inside.reshape(-1)][0]
            raise InvalidParameter(f"{self.name}: parameter {bad} outside box")
        return theta

    def _coords(self, x, theta):
        """Points as an array and the checked atom coordinates, each shaped
        atoms.shape[:-1] + (1,) * x.ndim to broadcast against the points."""
        theta = self.check_theta(theta)
        x = np.asarray(x, dtype=float)
        shape = theta.shape[:-1] + (1,) * x.ndim
        return x, [theta[..., i].reshape(shape) for i in range(self.q)]

    def _atom(self, theta):
        """One checked atom, of shape (q,)."""
        theta = self.check_theta(theta)
        if theta.ndim != 1:
            raise InvalidParameter(f"{self.name}: one atom expected, not {theta.shape}")
        return theta

    def log_density(self, x, theta):
        x, coords = self._coords(x, theta)
        out = self._log_density(x, *coords)
        return out if np.ndim(out) else float(out)

    def density(self, x, theta):
        return np.exp(self.log_density(x, theta))

    def grad_density(self, x, theta):
        """Gradient of the density in the parameter, analytic if available."""
        x, coords = self._coords(x, theta)
        axis = coords[0].ndim - x.ndim
        shape = coords[0].shape[:axis] + x.shape
        parts = self._grad_density(x, *coords)
        return np.stack([np.broadcast_to(p, shape) for p in parts], axis=axis)

    def sample(self, theta, count, rng):
        return self._sample(count, rng, *self._atom(theta))

    def mean(self, theta):
        return self._mean(*self._atom(theta))

    def support(self, theta):
        """(lo, hi) support interval for continuous kernels, else None."""
        return self._support(*self._atom(theta))

    def tail_bounds(self, theta, eps):
        """Finite [lo, hi] capturing all but eps probability per tail, for
        0 < eps < 1/2."""
        eps = check_real("eps", eps, 0, 0.5, strict=True)
        return self._tail_bounds(eps, *self._atom(theta))

    def closed_divergence(self, which, theta1, theta2):
        """Closed-form divergence value, or None when unavailable."""
        return self._closed_divergence(which, self._atom(theta1), self._atom(theta2))

    def sufficient_kernel(self, N):
        """Kernel law of a 1-D sufficient statistic of N draws, or None."""
        return None

    def _grad_density(self, x, *theta):
        """Central differences; the moved atoms are checked like any others."""
        theta = np.stack(theta, axis=-1)
        theta = theta.reshape(theta.shape[: theta.ndim - 1 - x.ndim] + (self.q,))
        return _central_difference(lambda t: self.density(x, t), theta)

    def _support(self, *theta):
        return (-np.inf, np.inf)

    def _tail_bounds(self, eps, *theta):
        lo, hi = self._support(*theta) or (-np.inf, np.inf)
        if math.isinf(lo) or math.isinf(hi):
            raise InvalidParameter(f"{self.name}: no finite tail bounds available")
        return (lo, hi)

    def _closed_divergence(self, which, theta1, theta2):
        return None


class BernoulliKernel(KernelFamily):
    """Binomial(trials, theta) success count; at trials=1 the two-point
    kernel on {0, 1}."""

    name = "bernoulli"
    q = 1

    def __init__(self, trials=1):
        self.trials = n = check_integer("trials", trials, 0)
        if n > BINOMIAL_TRIALS_MAX:
            raise BudgetExceeded(
                f"Binomial({n}, theta) has more than {BINOMIAL_TRIALS_MAX} + 1 "
                "support points to enumerate"
            )
        self.points = np.arange(n + 1, dtype=float)
        self.expfam = ExpFamilySpec(
            stats=(lambda x: np.asarray(x, dtype=float),),
            log_partition=lambda eta: n * np.logaddexp(0.0, eta[..., 0]),
            log_carrier=self._log_binom,
            natural=lambda th: np.log(th) - np.log1p(-th),
            in_natural_space=lambda eta: np.isfinite(eta).all(axis=-1),
        )

    def _log_binom(self, x):
        """log(trials choose x); exactly 0.0 on {0, 1} at trials=1."""
        n = self.trials
        return gammaln(n + 1) - gammaln(x + 1) - gammaln(n + 1 - x)

    def _in_box(self, theta):
        return (0.0 < theta[..., 0]) & (theta[..., 0] < 1.0)

    def _log_density(self, x, t):
        n = self.trials
        return self._log_binom(x) + x * np.log(t) + (n - x) * np.log1p(-t)

    def _sample(self, count, rng, t):
        draws = rng.random((count, self.trials)) < t
        return draws.sum(axis=1).astype(float)

    def _support(self, t):
        return None

    def _mean(self, t):
        return self.trials * float(t)

    def sufficient_kernel(self, N):
        """The summed count of N draws, Binomial(N * trials, theta)."""
        return BernoulliKernel(self.trials * N)

    def _grad_density(self, x, t):
        """trials * (f(x - 1) - f(x)) under one trial fewer."""
        fewer = BernoulliKernel(self.trials - 1)
        diff = np.exp(fewer._log_density(x - 1, t)) - np.exp(fewer._log_density(x, t))
        return [self.trials * diff]

    def _closed_divergence(self, which, theta1, theta2):
        if self.trials != 1:
            return None
        t1 = float(theta1[0])
        t2 = float(theta2[0])
        if which == "tv":
            return abs(t1 - t2)
        if which == "hellinger":
            # (sqrt(a) - sqrt(b))^2 as (a - b)^2 / (sqrt(a) + sqrt(b))^2, which
            # does not cancel when a and b are close.
            d2 = (t1 - t2) ** 2
            h2 = d2 / (math.sqrt(t1) + math.sqrt(t2)) ** 2 + d2 / (
                math.sqrt(1 - t1) + math.sqrt(1 - t2)
            ) ** 2
            return math.sqrt(0.5 * h2)
        if which == "kl":
            return t1 * math.log(t1 / t2) + (1 - t1) * math.log((1 - t1) / (1 - t2))
        return None


class GaussianLocationKernel(KernelFamily):
    """Gaussian with unknown location and fixed scale."""

    name = "gaussian_location"
    q = 1

    def __init__(self, sigma=1.0):
        self.sigma = check_real("sigma", sigma, *SIGMA_RANGE)
        s2 = self.sigma**2
        self.expfam = ExpFamilySpec(
            stats=(lambda x: np.asarray(x, dtype=float),),
            log_partition=lambda eta: 0.5 * s2 * eta[..., 0] ** 2,
            log_carrier=lambda x: -0.5 * np.square(x) / s2
            - 0.5 * math.log(2 * math.pi * s2),
            natural=lambda th: th / s2,
            in_natural_space=lambda eta: np.isfinite(eta).all(axis=-1),
        )

    def _log_density(self, x, mu):
        z = (x - mu) / self.sigma
        return -0.5 * z**2 - math.log(self.sigma * math.sqrt(2 * math.pi))

    def _sample(self, count, rng, mu):
        return rng.normal(mu, self.sigma, size=count)

    def _mean(self, mu):
        return float(mu)

    def sufficient_kernel(self, N):
        """The sample mean, N(theta, sigma^2 / N)."""
        try:
            return GaussianLocationKernel(self.sigma / math.sqrt(N))
        except (OverflowError, InvalidParameter) as err:
            raise InvalidParameter(
                "N is too large: the sample mean's scale sigma / sqrt(N) leaves "
                f"[{SIGMA_RANGE[0]:.3g}, {SIGMA_RANGE[1]:.3g}]"
            ) from err

    def _tail_bounds(self, eps, mu):
        z = -norm_ppf(eps)
        return (mu - z * self.sigma, mu + z * self.sigma)

    def _grad_density(self, x, mu):
        f = np.exp(self._log_density(x, mu))
        return [f * (x - mu) / self.sigma**2]

    def _closed_divergence(self, which, theta1, theta2):
        d = abs(float(theta1[0]) - float(theta2[0]))
        s = self.sigma
        if which == "tv":
            return math.erf(d / (2 * math.sqrt(2) * s))
        if which == "hellinger":
            return math.sqrt(max(-math.expm1(-(d**2) / (8 * s**2)), 0.0))
        if which == "kl":
            return d**2 / (2 * s**2)
        return None


class GammaKernel(KernelFamily):
    """Gamma kernel in shape and rate; optionally without its normalization
    constant (a positive rescaling per parameter, for span diagnostics)."""

    name = "gamma"
    q = 2

    def __init__(self, normalized=True):
        if not isinstance(normalized, (bool, np.bool_)):
            raise InvalidParameter("normalized must be a bool")
        self.normalized = bool(normalized)
        if self.normalized:
            self.expfam = ExpFamilySpec(
                stats=(np.log, np.negative),
                log_partition=lambda eta: gammaln(eta[..., 0] + 1.0)
                - (eta[..., 0] + 1.0) * np.log(eta[..., 1]),
                log_carrier=lambda x: np.where(np.greater(x, 0), 0.0, -np.inf),
                natural=lambda th: th - [1.0, 0.0],
                in_natural_space=lambda eta: (eta[..., 0] > -1.0) & (eta[..., 1] > 0.0),
            )

    def _in_box(self, theta):
        return (theta[..., 0] > 0.0) & (theta[..., 1] > 0.0)

    def _log_density(self, x, alpha, beta):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                x > 0,
                alpha * np.log(beta)
                + (alpha - 1.0) * np.log(np.where(x > 0, x, 1.0))
                - beta * x,
                -np.inf,
            )
        if self.normalized:
            out = out - gammaln(alpha)
        return out

    def _sample(self, count, rng, alpha, beta):
        return rng.gamma(shape=alpha, scale=1.0 / beta, size=count)

    def _support(self, *theta):
        return (0.0, np.inf)

    def _mean(self, alpha, beta):
        return float(alpha / beta)

    def _tail_bounds(self, eps, alpha, beta):
        return tuple(gamma_quantile(alpha, eps, up) / beta for up in (False, True))

    def _grad_density(self, x, alpha, beta):
        f = np.exp(self._log_density(x, alpha, beta))
        if np.any(x == 0):
            raise NonDifferentiablePoint("gamma density boundary at x = 0")
        dalpha = np.log(beta) + np.log(np.where(x > 0, x, 1.0))
        if self.normalized:
            dalpha = dalpha - digamma(alpha)
        return [f * dalpha, f * (alpha / beta - x)]

    def _closed_divergence(self, which, theta1, theta2):
        if not self.normalized:
            return None
        a1, b1 = theta1
        a2, b2 = theta2
        if which == "kl":
            kl = (a1 - a2) * digamma(a1) - gammaln(a1) + gammaln(a2)
            return float(kl + a2 * (math.log(b1) - math.log(b2)) + a1 * (b2 - b1) / b1)
        if which == "hellinger":
            return hellinger_expfam(self.expfam, theta1, theta2)
        return None


class UniformKernel(KernelFamily):
    """Uniform density on (0, theta)."""

    name = "uniform"
    q = 1

    def _in_box(self, theta):
        return theta[..., 0] > 0.0

    def _log_density(self, x, t):
        return np.where((x > 0) & (x < t), -np.log(t), -np.inf)

    def _sample(self, count, rng, t):
        return rng.uniform(0.0, t, size=count)

    def _support(self, t):
        return (0.0, float(t))

    def _mean(self, t):
        return float(t) / 2.0

    def _grad_density(self, x, t):
        if np.any((np.abs(x - t) < 1e-12 * np.maximum(1.0, t)) | (x == 0.0)):
            raise NonDifferentiablePoint("uniform density boundary")
        return [np.where((0.0 < x) & (x < t), -1.0 / t**2, 0.0)]

    def _closed_divergence(self, which, theta1, theta2):
        a = float(theta1[0])
        b = float(theta2[0])
        lo, hi = min(a, b), max(a, b)
        if which == "tv":
            return 1.0 - lo / hi
        if which == "hellinger":
            return math.sqrt(max(1.0 - math.sqrt(lo / hi), 0.0))
        if which == "kl":
            return math.log(b / a) if a <= b else np.inf
        return None


class LocScaleExponentialKernel(KernelFamily):
    """Exponential density with unknown left endpoint and scale."""

    name = "locscale_exponential"
    q = 2

    def _in_box(self, theta):
        return theta[..., 1] > 0.0

    def _log_density(self, x, xi, sigma):
        return np.where(x > xi, -(x - xi) / sigma - np.log(sigma), -np.inf)

    def _sample(self, count, rng, xi, sigma):
        return xi + rng.exponential(scale=sigma, size=count)

    def _support(self, xi, sigma):
        return (float(xi), np.inf)

    def _mean(self, xi, sigma):
        return float(xi + sigma)

    def _tail_bounds(self, eps, xi, sigma):
        return (xi, xi - sigma * math.log(eps))

    def _grad_density(self, x, xi, sigma):
        f = np.exp(self._log_density(x, xi, sigma))
        scale = np.maximum(np.maximum(1.0, np.abs(xi)), sigma)
        if np.any(np.abs(x - xi) < 1e-12 * scale):
            raise NonDifferentiablePoint("support boundary of the shifted exponential")
        return [f / sigma, f * ((x - xi) / sigma**2 - 1.0 / sigma)]


def _gaussian_raw_moment(mu, sigma, j):
    """E (sigma Z + mu)^j for standard normal Z: E Z^ell is (ell - 1)!! for
    even ell."""
    return sum(
        math.comb(j, ell) * math.prod(range(ell - 1, 0, -2)) * sigma**ell
        * mu ** (j - ell)
        for ell in range(0, j + 1, 2)
    )


class GaussianLocationMixtureKernel(KernelFamily):
    """Composite kernel: a k-component Gaussian location mixture with fixed
    scale, parametrized by the first k-1 component probabilities and the
    strictly increasing component means. The moment maps take one atom that
    ``moment_map`` has checked."""

    name = "gaussian_location_mixture"

    def __init__(self, k, sigma=1.0):
        self.k = check_integer("k", k, 2)
        self.sigma = check_real("sigma", sigma, *SIGMA_RANGE)
        self.q = 2 * self.k - 1

    def split(self, theta):
        """Component probabilities and means, each (..., k), of q coordinates."""
        theta = np.stack(theta, axis=-1)
        head = theta[..., : self.k - 1]
        pis = np.concatenate([head, 1.0 - head.sum(axis=-1, keepdims=True)], axis=-1)
        return pis, theta[..., self.k - 1 :]

    def _in_box(self, theta):
        pis = theta[..., : self.k - 1]
        mus = theta[..., self.k - 1 :]
        return (
            np.all(pis > 0, axis=-1)
            & (pis.sum(axis=-1) < 1.0)
            & np.all(np.diff(mus, axis=-1) > 0, axis=-1)
        )

    def _log_density(self, x, *theta):
        pis, mus = self.split(theta)
        z = (x[..., None] - mus) / self.sigma
        comp = -0.5 * z**2 - math.log(self.sigma * math.sqrt(2 * math.pi))
        return logsumexp(comp + np.log(pis), axis=-1)

    def _sample(self, count, rng, *theta):
        pis, mus = self.split(theta)
        comps = rng.choice(self.k, size=count, p=pis)
        return rng.normal(mus[comps], self.sigma)

    def _mean(self, *theta):
        pis, mus = self.split(theta)
        return float(pis @ mus)

    def _tail_bounds(self, eps, *theta):
        _, mus = self.split(theta)
        z = -norm_ppf(eps)
        return (float(mus.min()) - z * self.sigma, float(mus.max()) + z * self.sigma)

    def moment_lambda(self, theta):
        pis, mus = self.split(theta)
        return np.array([
            sum(p * _gaussian_raw_moment(m, self.sigma, j) for p, m in zip(pis, mus))
            for j in range(1, 2 * self.k)
        ])

    def moment_jacobian(self, theta):
        pis, mus = self.split(theta)
        dim = 2 * self.k - 1
        J = np.empty((dim, dim))
        for row, j in enumerate(range(1, 2 * self.k)):
            for i in range(self.k - 1):
                J[row, i] = _gaussian_raw_moment(
                    mus[i], self.sigma, j
                ) - _gaussian_raw_moment(mus[self.k - 1], self.sigma, j)
            for i in range(self.k):
                J[row, self.k - 1 + i] = (
                    pis[i] * j * _gaussian_raw_moment(mus[i], self.sigma, j - 1)
                )
        return J

    def moment_det_closed(self, theta):
        pis, mus = self.split(theta)
        k = self.k
        sign = (-1.0) ** (k + 1) * (-1.0) ** (k * (k - 1) // 2)
        pairs = ((a, b) for a in range(k) for b in range(a + 1, k))
        gaps = math.prod((mus[a] - mus[b]) ** 4 for a, b in pairs)
        return sign * float(np.prod(pis)) * gaps


class BetaPushforwardKernel(KernelFamily):
    """Composite kernel on (0, 1): a two-component Beta mixture in which both
    components share a fixed mean fraction xi and differ in concentration.
    The moment maps take one atom that ``moment_map`` has checked."""

    name = "beta_pushforward"
    q = 3

    def __init__(self, xi):
        self.xi = check_real("xi", xi, 0, 1, strict=True)

    def _in_box(self, theta):
        pi1, a1, a2 = theta[..., 0], theta[..., 1], theta[..., 2]
        return (0.0 < pi1) & (pi1 < 1.0) & (2.0 < a1) & (a1 < a2)

    def _component_logpdf(self, z, alpha):
        a = alpha * self.xi
        b = alpha * (1.0 - self.xi)
        with np.errstate(divide="ignore", invalid="ignore"):
            inside = (z > 0) & (z < 1)
            zz = np.where(inside, z, 0.5)
            out = np.where(
                inside,
                (a - 1) * np.log(zz) + (b - 1) * np.log1p(-zz) - betaln(a, b),
                -np.inf,
            )
        return out

    def _log_density(self, x, pi1, a1, a2):
        l1 = self._component_logpdf(x, a1) + np.log(pi1)
        l2 = self._component_logpdf(x, a2) + np.log1p(-pi1)
        return np.logaddexp(l1, l2)

    def _sample(self, count, rng, pi1, a1, a2):
        alphas = np.where(rng.random(count) < pi1, a1, a2)
        return rng.beta(alphas * self.xi, alphas * (1.0 - self.xi))

    def _support(self, *theta):
        return (0.0, 1.0)

    def _mean(self, *theta):
        return self.xi

    def _q(self, alpha, j):
        out = 1.0
        for ell in range(j + 1):
            out *= (alpha * self.xi + ell) / (alpha + ell)
        return out

    def moment_lambda(self, theta):
        pi1, a1, a2 = theta
        return np.array(
            [pi1 * self._q(a1, j) + (1 - pi1) * self._q(a2, j) for j in (1, 2, 3)]
        )

    def moment_jacobian(self, theta):
        pi1, a1, a2 = theta
        J = np.empty((3, 3))
        for row, j in enumerate((1, 2, 3)):
            J[row, 0] = self._q(a1, j) - self._q(a2, j)
            for col, (pw, aa) in enumerate(((pi1, a1), (1 - pi1, a2)), start=1):
                s = sum(
                    self.xi / (aa * self.xi + ell) - 1.0 / (aa + ell)
                    for ell in range(j + 1)
                )
                J[row, col] = pw * self._q(aa, j) * s
        return J

    def moment_det_closed(self, theta):
        pi1, a1, a2 = theta
        xi = self.xi
        num = 6.0 * (xi - 1.0) ** 3 * xi**3 * (2 * xi - 1.0) * (3 * xi - 1.0)
        num = num * (3 * xi - 2.0) * pi1 * (1.0 - pi1) * (a1 - a2) ** 4
        return num / math.prod(((1 + aa) * (2 + aa) * (3 + aa)) ** 2 for aa in (a1, a2))


def hellinger_expfam(spec, theta1, theta2):
    """Hellinger distance from the log-partition of an exponential family:
    1 - h^2 = exp(A(midpoint) - average of A at the endpoints)."""
    if isinstance(spec, KernelFamily):
        if spec.expfam is None:
            raise InvalidParameter(f"{spec.name} has no exponential-family structure")
        spec = spec.expfam
    eta1 = spec.natural(np.atleast_1d(np.asarray(theta1, float)))
    eta2 = spec.natural(np.atleast_1d(np.asarray(theta2, float)))
    mid = 0.5 * (eta1 + eta2)
    for eta in (eta1, eta2, mid):
        if not spec.in_natural_space(eta):
            raise MidpointOutsideDomain(f"natural parameter {eta} outside the domain")
    exponent = float(
        spec.log_partition(mid)
        - 0.5 * (spec.log_partition(eta1) + spec.log_partition(eta2))
    )
    h2 = -math.expm1(min(exponent, 0.0))
    return math.sqrt(max(h2, 0.0))


def segment_boundaries(kernel, atoms, tail_eps):
    """Integration boundaries for the kernels at all atoms: the union of
    their finite tail bounds, cut at every finite support end strictly
    inside, where a density may jump."""
    los, his, cuts = [], [], set()
    for atom in np.reshape(atoms, (-1, kernel.q)):
        lo, hi = kernel.tail_bounds(atom, tail_eps)
        los.append(lo)
        his.append(hi)
        cuts.update(end for end in kernel.support(atom) if math.isfinite(end))
    lo, hi = min(los), max(his)
    return [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]


def gl_nodes(boundaries, panels_per_segment, order):
    """Nodes and weights of the order-point Gauss-Legendre rule on each of
    panels_per_segment equal panels of every segment between boundaries,
    in order; the panel edges are np.linspace's, bit for bit."""
    base_x, base_w = gauss_legendre(order)
    a, b = np.array(boundaries[:-1], float), np.array(boundaries[1:], float)
    steps = np.arange(panels_per_segment + 1.0)
    edges = steps * ((b - a) / panels_per_segment)[:, None] + a[:, None]
    edges[:, -1] = b
    lo, hi = edges[:, :-1].reshape(-1, 1), edges[:, 1:].reshape(-1, 1)
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + half * base_x).ravel(), (half * base_w).ravel()


def integrate_panels(fun, boundaries):
    """Integral of a vectorised fun over the segments between boundaries by
    adaptive Gauss-Legendre panels, and the number of nodes it took. Each
    pass evaluates the order-8 and order-16 nodes of all open panels in one
    call, closes those whose rules agree within PANEL_TOL times their share
    of the width (or PANEL_ULPS ulps of their value) or that are narrower
    than PANEL_ULPS ulps of their ends, and bisects the rest. Raises
    QuadratureNonConvergence past PANEL_TARGET of error left on the narrow
    panels, PANEL_LEVELS passes or PANEL_OPEN_MAX open panels."""
    lo, hi = np.array(boundaries[:-1], float), np.array(boundaries[1:], float)
    (x8, w8), (x16, w16) = gauss_legendre(8), gauss_legendre(16)
    tol = PANEL_TOL / (hi[-1] - lo[0])
    total = unresolved = 0.0
    nodes = 0
    for _ in range(PANEL_LEVELS):
        if lo.size > PANEL_OPEN_MAX:
            raise QuadratureNonConvergence(f"more than {PANEL_OPEN_MAX} open panels")
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = fun(mid[:, None] + half[:, None] * np.concatenate([x8, x16]))
        nodes += vals.size
        g16 = half * (vals[:, 8:] @ w16)
        err = np.abs(g16 - half * (vals[:, :8] @ w8))
        done = err <= np.maximum(tol * (hi - lo), PANEL_ULPS * np.spacing(abs(g16)))
        narrow = hi - lo <= PANEL_ULPS * np.spacing(np.maximum(abs(lo), abs(hi)))
        unresolved += err[narrow & ~done].sum()
        if unresolved > PANEL_TARGET:
            raise QuadratureNonConvergence(f"{unresolved:.2e} of error left unresolved")
        closed = done | narrow
        total += g16[closed].sum()
        if closed.all():
            return float(total), nodes
        lo, mid, hi = lo[~closed], mid[~closed], hi[~closed]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    raise QuadratureNonConvergence(f"no convergence in {PANEL_LEVELS} passes")


def bracketed_roots(f, lo, hi, xtol, maxiter=100):
    """A root of the vectorised f in each bracket (lo[i], hi[i]) over which
    f changes sign, by Chandrupatla's (1997) hybrid of inverse quadratic
    interpolation and bisection, run on all brackets at once. Steps stay
    half the tolerance inside the bracket, which closes once narrower than
    xtol + ROOT_RTOL * |x|, brentq's rule. The root is then the secant
    point of its ends, or an end where f is zero, so such an end comes back
    exactly. For an elementwise f, brackets solved together or alone give
    the same bits. RootBracketingFailed without a sign change,
    ConvergenceError after maxiter steps."""
    x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if x1.size == 0:
        return x1
    f1, f2 = np.split(f(np.concatenate([x1, x2])), 2)
    if not np.all(np.sign(f1) * np.sign(f2) <= 0):
        raise RootBracketingFailed("no sign change over a bracket")
    # x1 is the newest point, x2 the end across the sign change from it and
    # x3 the point they replaced; x3 = x2 makes the first step a bisection.
    x3, f3 = x2, f2
    roots, active = np.empty_like(x1), np.arange(x1.size)
    for step in range(maxiter + 1):
        nearer = np.abs(f1) < np.abs(f2)
        best, zero = np.where(nearer, x1, x2), np.where(nearer, f1, f2) == 0
        d, f12 = x2 - x1, f1 - f2
        tol, width = xtol + ROOT_RTOL * np.abs(best), np.abs(d)
        done = zero | (width < tol)
        if np.count_nonzero(done):
            with np.errstate(invalid="ignore"):
                secant = x1 + f1 / f12 * d
            roots[active[done]] = np.where(zero, best, secant)[done]
            if np.count_nonzero(done) == done.size:
                return roots
            live = ~done
            active, x1, x2, x3, f1, f2, f3, tol, width, d, f12 = (
                v[live] for v in (active, x1, x2, x3, f1, f2, f3, tol, width, d, f12)
            )
        if step == maxiter:
            raise ConvergenceError(f"{x1.size} roots unresolved after {maxiter} steps")
        with np.errstate(divide="ignore", invalid="ignore"):
            f32 = f3 - f2
            xi, phi = -d / (x3 - x2), f12 / f32
            quadratic = (1 - np.sqrt(1 - xi) < phi) & (phi < np.sqrt(xi))
            t = f1 / f12 * f3 / f32 + (x3 - x1) / d * f1 / (f3 - f1) * f2 / f32
        margin = 0.5 * tol / width
        t = np.minimum(np.maximum(np.where(quadratic, t, 0.5), margin), 1 - margin)
        x = x1 + t * d
        fx = f(x)
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx


def mixture_divergence(kernel, atoms, weights, atoms2, weights2, which):
    """TV, Hellinger distance or KL between the kernel mixtures (atoms,
    weights) and (atoms2, weights2), and the number of integrand nodes: a
    sum over kernel.points for discrete kernels, else integrate_panels over
    the union of the TAIL_EPS tail bounds, cut at finite support ends, at
    each atom's own tail bounds and, for TV, where the two densities cross
    (a sign scan of CROSSING_SCAN interior points per segment, refined
    together by bracketed_roots). The per-atom cuts give each component
    segments of its own width: a component far narrower than the union
    could otherwise fall between the nodes of a panel that both rules then
    read as zero."""
    both = np.concatenate([atoms, atoms2])
    log_w = np.log(np.concatenate([weights, weights2]))
    k = len(atoms)

    def log_mixtures(x):
        terms = kernel.log_density(x, both) + log_w.reshape((-1,) + (1,) * np.ndim(x))
        return logsumexp(terms[:k], axis=0), logsumexp(terms[k:], axis=0)

    def integrand(x):
        lp, lq = log_mixtures(x)
        p, q = np.exp(lp), np.exp(lq)
        if which == "tv":
            return 0.5 * np.abs(p - q)
        if which == "hellinger":
            return 0.5 * (np.sqrt(p) - np.sqrt(q)) ** 2
        with np.errstate(invalid="ignore"):
            return np.where(lp == -np.inf, 0.0, p * (lp - lq))

    def diff(x):
        p, q = np.exp(log_mixtures(x))
        return p - q

    if kernel.points is not None:
        value, nodes = float(integrand(kernel.points).sum()), kernel.points.size
    else:
        ends = [end for atom in both for end in kernel.tail_bounds(atom, TAIL_EPS)]
        bounds = sorted(set(segment_boundaries(kernel, both, TAIL_EPS)).union(ends))
        if which == "tv":
            a, b = np.array(bounds[:-1]), np.array(bounds[1:])
            t = np.arange(1, CROSSING_SCAN + 1) / (CROSSING_SCAN + 1)
            xs = a[:, None] + (b - a)[:, None] * t
            # A crossing lies between neighbouring nonzero signs of a row.
            signs = np.sign(diff(xs))
            rows, cols = np.nonzero(signs)
            ends, nonzero = xs[rows, cols], signs[rows, cols]
            cross = (rows[:-1] == rows[1:]) & (nonzero[:-1] != nonzero[1:])
            lo, hi = ends[:-1][cross], ends[1:][cross]
            bounds += bracketed_roots(diff, lo, hi, CROSSING_XTOL).tolist()
            bounds.sort()
        value, nodes = integrate_panels(integrand, bounds)
    value = max(value, 0.0)
    return (math.sqrt(value) if which == "hellinger" else value), nodes


def divergence_numeric(kernel, theta1, theta2, which):
    """Divergence between two kernels as mixture_divergence of two one-atom
    mixtures; the Hellinger DISTANCE (not squared) for which='hellinger'.
    QuadratureNonConvergence, not a truncated value, where the panels cannot
    resolve the integral (e.g. an unbounded density at a support end)."""
    which = which.lower() if isinstance(which, str) else which
    if which not in ("tv", "hellinger", "kl"):
        raise InvalidParameter(f"unknown divergence which={which!r}")
    t1 = kernel._atom(theta1)
    t2 = kernel._atom(theta2)
    if which == "kl" and kernel.points is None:
        s1 = kernel.support(t1)
        s2 = kernel.support(t2)
        if s1[0] < s2[0] - 1e-15 or s1[1] > s2[1] + 1e-15:
            return np.inf
    return mixture_divergence(kernel, t1[None], [1.0], t2[None], [1.0], which)[0]


def moment_map(kernel, theta):
    """Polynomial moment vector with analytic Jacobian, its closed-form
    determinant, and a finite-difference determinant cross-check."""
    if isinstance(kernel, BetaPushforwardKernel):
        if any(abs(kernel.xi - v) < 1e-12 for v in (1 / 3, 1 / 2, 2 / 3)):
            raise DegenerateXi(
                f"moment map singular at mean fraction {kernel.xi}"
            )
    elif not isinstance(kernel, GaussianLocationMixtureKernel):
        raise InvalidParameter(f"{kernel.name} has no moment map")
    theta = kernel._atom(theta)
    lam = kernel.moment_lambda(theta)
    J = kernel.moment_jacobian(theta)
    det_closed = kernel.moment_det_closed(theta)
    J_fd = np.stack(_central_difference(kernel.moment_lambda, theta), axis=-1)
    det_fd = float(np.linalg.det(J_fd))
    return MomentMapReport(lam=lam, jacobian=J, det_closed=det_closed, det_fd=det_fd)


KERNEL_BUILDERS = {
    # The count law Binomial(trials, theta) is built directly, not by name.
    "bernoulli": lambda: BernoulliKernel(),
    "gaussian_location": GaussianLocationKernel,
    "gamma": GammaKernel,
    "uniform": UniformKernel,
    "locscale_exponential": LocScaleExponentialKernel,
    "gaussian_location_mixture": GaussianLocationMixtureKernel,
    "beta_pushforward": BetaPushforwardKernel,
}


def kernel_from_spec(doc):
    """Build a kernel from {"family": name, "params_fixed": {...}}; the fixed
    parameters are the family constructor's keyword arguments."""
    family = doc.get("family")
    if family not in KERNEL_BUILDERS:
        raise InvalidParameter(f"unknown kernel family {family!r}")
    try:
        return KERNEL_BUILDERS[family](**doc.get("params_fixed", {}))
    except TypeError as err:
        raise InvalidParameter(f"{family} kernel: {err}") from err
