"""Exception types shared across the package.

Every validation failure raises a subclass of SizeBiasError, which itself
subclasses ValueError so callers that only care about "bad input" can catch
the standard type.
"""


class SizeBiasError(ValueError):
    """Base class for all validation errors raised by this package."""


# distribution core

class ZeroMean(SizeBiasError):
    """The identically-zero variable cannot be reweighted by its size."""


class AtomPresent(SizeBiasError):
    """Density path called on a grid that carries point mass at 0."""


class NegativeMomentAtZero(SizeBiasError):
    """Negative-order moment requested while an atom sits at 0."""


class NoClosedForm(SizeBiasError):
    """No closed-form transform is known for this family."""


class NonpositiveScale(SizeBiasError):
    pass


class AtomAtZero(SizeBiasError):
    """Preimage under the transform requires strictly positive support."""


class NoSuccesses(SizeBiasError):
    """Conditioning event never occurred in the supplied pairs."""


# sums, products, mixtures

class ZeroMeanTerm(SizeBiasError):
    pass


class SupportOverflow(SizeBiasError):
    """A result would pass a work cap or the double range.

    Raised before allocating past an atom, grid, cell or work cap, and
    where a support, a sum of means or a moment overflows.
    """


class ZeroInSupport(SizeBiasError):
    """Product biasing needs every factor strictly positive."""


class ZeroMeanComponent(SizeBiasError):
    pass


# compound Poisson / divisibility

class ZeroSupportPoint(SizeBiasError):
    pass


class NonIntegerJump(SizeBiasError):
    """Integer-lattice recursion got a non-integer jump or a drift mass."""


class ZeroAtOrigin(SizeBiasError):
    """Increment extraction divides by the mass at 0."""


class GapInSupport(SizeBiasError):
    """Log-convexity check needs a gap-free initial segment."""


class GridTooCoarse(SizeBiasError):
    pass


# moment problem

class TruncationTooSevere(SizeBiasError):
    """Truncated series cannot reach the requested accuracy."""


class QuadratureFailure(SizeBiasError):
    pass


# sampling design

class BadSampleSize(SizeBiasError):
    pass


class ZeroDenominator(SizeBiasError):
    pass


class BadSubsetSize(SizeBiasError):
    pass


# simulation / embedding

class HorizonTooShort(SizeBiasError):
    pass


class ConstantInput(SizeBiasError):
    pass


class NonzeroMean(SizeBiasError):
    pass


class NoSampler(SizeBiasError):
    """No random draw is implemented for this family."""


# bounds

class DomainError(SizeBiasError):
    """An input outside the domain a computation is defined or computable on.

    An evaluation point on the wrong side of the mean, a base, ratio,
    horizon or window that is not a positive finite number, a non-finite
    population value, a mean the delay grid cannot march, or a rate,
    theta sum or orbit grid whose terms underflow or overflow.
    """


class BoundViolated(SizeBiasError):
    """A computed value landed outside the bound proven to contain it."""
