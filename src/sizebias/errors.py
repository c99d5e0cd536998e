"""The package's eight exception types, one per remedy.

Every refusal in the package raises one of these.  SizeBiasError is the
base and subclasses ValueError, so a caller that only cares about "bad
input" can catch the standard type; the CLI prints the message of any of
them and exits 2.  The message says which check fired.
"""


class SizeBiasError(ValueError):
    """Base class; raised itself for a malformed JSON or CSV document."""


class DomainError(SizeBiasError):
    """An input outside the domain a computation is defined or computable on.

    A value that is not finite, not positive, out of its range, off the
    lattice or grid, or of the wrong shape; a law without the property the
    construction needs (mass at 0, a mean of 0, a gap-free support).
    """


class ZeroMean(SizeBiasError):
    """A law, term or component with mean 0 cannot be reweighted by its size."""


class SupportOverflow(SizeBiasError):
    """A result would pass a work cap or the double range.

    Raised before allocating past an atom, grid, cell or work cap, and
    where a support, a mean, a sum of means, a moment or an integral
    overflows.
    """


class TruncationTooSevere(SizeBiasError):
    """A truncated series or domain drops too much: widen it."""


class NoClosedForm(SizeBiasError):
    """No closed-form transform is known for this family; tabulate instead."""


class NoSampler(SizeBiasError):
    """No random draw is implemented for this family."""


class BoundViolated(SizeBiasError):
    """A computed value landed outside the bound proven to contain it: a defect, not bad input."""
