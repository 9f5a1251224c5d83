"""Exception hierarchy for domain and validation failures.

Every error raised by the library derives from ConcentrationError so that
callers (notably the CLI) can map computation-domain failures to a single
exit code while letting genuine bugs surface as ordinary exceptions.
"""


class ConcentrationError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptySpectrumError(ConcentrationError):
    """Spectrum construction received no strictly positive entry."""


class NotASpectrumError(ConcentrationError, TypeError):
    """A spectrum argument is not a SchmidtSpectrum; new_spectrum builds one."""


class NegativeEntryError(ConcentrationError):
    """A spectrum or a type received a negative probability or count."""


class NonFiniteEntryError(ConcentrationError):
    """Spectrum construction received a NaN or infinite entry."""


class NotNormalizedError(ConcentrationError):
    """Probabilities do not sum to one and renormalization was not requested."""


class DimensionMismatchError(ConcentrationError):
    """Two distributions that must share an index set have different lengths."""


class SizeOutOfRangeError(ConcentrationError):
    """Target maximally-entangled size outside the feasible range."""


class TooManyTypesError(ConcentrationError):
    """Type enumeration would exceed the configured item guard."""


class RateOutOfRangeError(ConcentrationError):
    """Per-copy rate outside the open interval required by the regime."""


class NonPositiveExponentError(ConcentrationError):
    """Exponent argument must be finite and strictly positive."""


class TiltOutOfRangeError(ConcentrationError):
    """Tilted-family parameter s must be finite and non-negative."""


class DimensionTooLargeError(ConcentrationError):
    """Simplex-grid oracle only supports dimensions up to 3."""


class SizeOrderError(ConcentrationError):
    """Size arguments violate the required ordering (needs L <= T)."""


class EpsTooLargeError(ConcentrationError):
    """Fidelity defect must be below 1/6 for the conversion to apply."""


class TTooSmallError(ConcentrationError):
    """Target size too small for a nontrivial conversion output."""


class SolverError(ConcentrationError):
    """A bracketing or iteration limit was exhausted before convergence."""
