"""Exception types shared across the package."""


class WonderError(Exception):
    """Base class for all validation and computation failures."""


class MalformedFan(WonderError):
    pass


class RayNotInterior(WonderError):
    pass


class NotSplit(WonderError):
    pass


class CycleDetected(WonderError):
    pass


class NoBasis(WonderError):
    pass


class NotGood(WonderError):
    pass


class NotBuilding(WonderError):
    pass


class BadOrder(WonderError):
    pass


class NotNested(WonderError):
    pass


class BudgetExhausted(WonderError):
    pass


class InvariantViolated(WonderError):
    """A computed result broke a property that the construction guarantees,
    which points at a fault in the program rather than in the input.  Raised
    instead of asserted, so the check also runs under `python -O`."""


class SchemaError(WonderError):
    """Malformed job document or command input; distinct from a mathematical
    validation failure so the command line can exit 2 instead of 1."""

