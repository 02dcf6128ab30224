"""Exception hierarchy shared by all onionprint modules."""


class OnionprintError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(OnionprintError):
    """Malformed or out-of-contract input (bad file, bad parameter value)."""


class InvariantError(OnionprintError):
    """An internal consistency check failed; indicates a bug, not bad input."""
