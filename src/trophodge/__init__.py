"""Exact rational computations in tropical Hodge theory.

Everything in this package is computed over the rationals with exact
arithmetic; there are no floating-point numbers anywhere.
"""

import functools

__version__ = "0.1.0"

# Conventions pinned by the test suite; reports carry these so that signs
# appearing in outputs are interpretable.
CONVENTIONS = {
    "orientation": "hnf-lex",          # tangent bases: HNF-reduced, pivot-positive
    "differential_sign": "sign-on-both",  # sign(gamma,delta) multiplies i* and gys
    "infinity_normal": "inward",       # normal at a sedentarity-raising incidence
}


def cached(fn):
    """Memoize fn(obj, *args) in obj.__dict__, keyed by (fn, args).

    fn is a method, or a free function whose first argument owns the result
    (a complex owns its cochain complexes, a star fan its Chow ring).  The
    rule: obj must not change after the first call, since every later call
    returns what was built from obj as it was then; and since every caller
    gets that one result, none may change it.

    Not functools.cache or lru_cache: those keep every obj they have seen,
    and all it caches, alive for the whole process, and one process runs
    many inputs in turn.  Here the results go when obj goes.
    """
    @functools.wraps(fn)
    def wrapper(obj, *args):
        memo, key = obj.__dict__, (fn, args)
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = fn(obj, *args)
        return value
    return wrapper


_MISSING = object()


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
