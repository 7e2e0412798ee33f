"""Error taxonomy shared by all modules, and the one policy for scalar
arguments: ``check_real`` and ``check_integer``."""

import math
import numbers


class MixLabError(Exception):
    """Base class for all library errors."""


class InvalidMeasure(MixLabError):
    """A discrete measure violates its invariants (weights, duplicate atoms)."""


class MismatchedSupportSize(MixLabError):
    """Two measures with different atom counts where equal counts are required."""


class InvalidParameter(MixLabError):
    """A parameter lies outside its validity region or violates a precondition."""


def check_real(name, value, lower=-math.inf, upper=math.inf, strict=False):
    """value as a float, after refusing anything but a finite real, not a
    bool, in [lower, upper] (in (lower, upper) when strict)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.nan
    if not math.isfinite(number) or not (
        lower < number < upper if strict else lower <= number <= upper
    ):
        signs = zip((">", "<") if strict else (">=", "<="), (lower, upper))
        bounds = " and".join(f" {s} {b}" for s, b in signs if math.isfinite(b))
        raise InvalidParameter(f"{name} must be a finite real{bounds}, got {value!r}")
    return number


def check_integer(name, value, lower=None):
    """value as an int, after refusing anything but a Python or NumPy
    integer, not a bool, at or above lower when given."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integer or (lower is not None and value < lower):
        bound = "" if lower is None else f" >= {lower}"
        raise InvalidParameter(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


class MidpointOutsideDomain(MixLabError):
    """Natural-parameter midpoint left the exponential family's domain."""


class QuadratureNonConvergence(MixLabError):
    """Adaptive quadrature failed to reach the requested accuracy."""


class NonDifferentiablePoint(MixLabError):
    """Density gradient requested on a support boundary."""


class DegenerateXi(MixLabError):
    """Beta-pushforward mixing fraction at a value where the moment map degenerates."""


class LengthMismatch(MixLabError):
    """Sequence length does not match the product model's length."""


class BudgetExceeded(MixLabError):
    """Requested computation refused: it cannot meet its target within budget."""


class RootBracketingFailed(MixLabError):
    """A guaranteed sign change was not found numerically (inputs near-degenerate)."""


class InvalidPath(MixLabError):
    """A perturbation path left the parameter box for some step in the grid."""


class AllProposalsRejected(MixLabError):
    """MCMC diagnostic: no proposal accepted within the configured window."""


class ConvergenceError(MixLabError):
    """An iterative routine failed to converge."""


class SchemaError(MixLabError):
    """A configuration document failed validation.

    The message names the offending field path.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
