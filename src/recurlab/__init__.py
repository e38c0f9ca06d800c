"""Simulation lab for double-recurrence counterexample mechanisms."""

__version__ = "0.1.0"


class PreconditionError(ValueError):
    """An input outside the range an engine is validated for.

    The CLI reports it as a configuration error (exit 2); any other
    exception an engine raises is a fault and propagates with its traceback.
    """
