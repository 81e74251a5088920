"""Shared exception types for the bfvkit engine."""


class BfvError(Exception):
    """Base class for all engine errors."""


class UnknownGenerator(BfvError):
    pass


class TableMismatch(BfvError):
    pass


class PresetMismatch(BfvError):
    pass


class ShapeMismatch(BfvError):
    pass


class NotBihomogeneous(BfvError):
    pass


class NotInLagrangian(BfvError):
    def __init__(self, token):
        super().__init__(f"generator {token!r} is outside the Lagrangian alphabet")
        self.token = token


class InternalSignError(BfvError):
    pass


class ExponentOverflow(BfvError):
    """An exponent past the cap of the packed monomial codec."""


class NotNearIdentity(BfvError):
    pass


class RankDeficient(BfvError):
    pass


class NotFound(BfvError):
    """A bounded-ansatz linear solve was inconsistent at the given bound.

    Distinct from a verified failure: raising the bound may still succeed.
    """

    def __init__(self, message, bound):
        super().__init__(f"{message} (bound {bound})")
        self.bound = bound


class LiftNotFound(NotFound):
    pass


class ParseError(BfvError):
    def __init__(self, message, location=None):
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)
        self.location = location


class SchemaError(BfvError):
    def __init__(self, key, message):
        super().__init__(f"key {key!r}: {message}")
        self.key = key


class TruncationWarning(UserWarning):
    """A k-ary bracket was requested beyond the computed series terms."""
