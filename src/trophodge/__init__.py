"""Exact rational computations in tropical Hodge theory.

Everything in this package is computed over the rationals with exact
arithmetic; there are no floating-point numbers anywhere.
"""

__version__ = "0.1.0"

# Conventions pinned by the test suite; reports carry these so that signs
# appearing in outputs are interpretable.
CONVENTIONS = {
    "orientation": "hnf-lex",          # tangent bases: HNF-reduced, pivot-positive
    "differential_sign": "sign-on-both",  # sign(gamma,delta) multiplies i* and gys
    "infinity_normal": "inward",       # normal at a sedentarity-raising incidence
}


class TrophodgeError(Exception):
    """Base class for all structured errors raised by this package."""


class NotAFanError(TrophodgeError):
    pass


class NotUnimodularError(TrophodgeError):
    pass


class NotSimpleError(TrophodgeError):
    pass


class NotCodimOneError(TrophodgeError):
    pass


class DegreeMismatchError(TrophodgeError):
    pass


class NotASubspaceError(TrophodgeError):
    pass


class RankDeficientError(TrophodgeError):
    pass


class DegeneratePairingError(TrophodgeError):
    pass


class HLFailureError(TrophodgeError):
    pass


class ChaseFailureError(TrophodgeError):
    pass


class IncompatibleClassError(TrophodgeError):
    pass


class GluingConflictError(TrophodgeError):
    pass


class ZigzagInconsistentError(TrophodgeError):
    pass


class InputFormatError(TrophodgeError):
    pass


class NotAComplexError(TrophodgeError):
    """A differential that does not square to zero."""
