"""Exception hierarchy shared by all folcurves modules."""


class FolcurvesError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FolcurvesError):
    """Malformed polynomial or form expression."""


class NotHomogeneousError(FolcurvesError):
    """Expression mixes total degrees (or form degrees)."""


class DegreeMismatchError(FolcurvesError):
    """Graded operands carry incompatible degree tags."""


class ResourceLimitError(FolcurvesError):
    """A work cap was exceeded (S-pairs, Buchberger's division steps, terms,
    coefficient bits, total degree, piece dimensions, lcm lattice, Betti
    table degree, twist range, sample redraws)."""


class NotACurveError(FolcurvesError):
    """The ideal does not define a one-dimensional scheme."""


class WindowTooSmallError(FolcurvesError):
    """A cohomology profile is nonzero at an endpoint of the requested window."""


class DegreeOverflowError(FolcurvesError):
    """Wedge product would exceed form degree 4."""


class WrongFormDegreeError(FolcurvesError):
    """Operation requires a form of a specific exterior degree."""


class ZeroFormError(FolcurvesError):
    """Operation is undefined on the zero form."""


class NotProjectiveError(FolcurvesError):
    """Radial contraction of the form does not vanish."""


class NotContactError(FolcurvesError):
    """The 1-form does not induce a contact structure."""


class ProportionalInputError(FolcurvesError):
    """The second 1-form is a polynomial multiple of the first."""


class UnsupportedRankError(FolcurvesError):
    """Euler characteristic is implemented for ranks 1 and 2 only."""


class UnsupportedFormIndexError(FolcurvesError):
    """Cohomology of twisted p-forms is tabulated for p = 1 only."""


class InvalidProfileError(FolcurvesError):
    """Requested cohomology inputs are inconsistent with the Euler characteristic."""


class OutOfBoundsError(FolcurvesError):
    """A Chern number violates the admissible range."""


class NonIntegralGenusError(FolcurvesError):
    """The genus formula does not produce an integer for these inputs."""


class InconsistentTripleError(FolcurvesError):
    """Invariants produce a negative isolated-singularity count."""


class DegreeTooSmallError(FolcurvesError):
    """The connectedness criterion requires foliation degree at least 2."""


class CrossCheckFailureError(FolcurvesError):
    """Two independent computation routes disagree."""


class ImpossibleError(FolcurvesError):
    """No foliation exists with the requested invariants.

    The message carries the violated constraint.
    """


class NotTemplateModeError(FolcurvesError):
    """Monad does not match the symmetric template; regularity bound refused."""
