"""Simulation lab for double-recurrence counterexample mechanisms."""

__version__ = "0.1.0"


class PreconditionError(ValueError):
    """An input outside the range an engine is validated for.

    The CLI reports it as a configuration error (exit 2); any other
    exception an engine raises is a fault and propagates with its traceback.
    """


def power_tail(s: float, H: int) -> float:
    """(H + 1/2)^(1-s) / (s - 1), an upper bound on sum_{n > H} n^-s for
    s > 1 and integer H >= 0: x^-s is convex, so n^-s is at most its mean
    over [n - 1/2, n + 1/2] (Hermite-Hadamard), and those intervals tile
    [H + 1/2, oo). Its relative excess over the sum is, to leading order,
    the midpoint rule's s (s - 1) / (24 (H + 1/2)^2)."""
    if not (s > 1.0 and H >= 0 and H == int(H)):
        raise ValueError(f"power_tail needs s > 1 and integer H >= 0, got {s}, {H}")
    return (H + 0.5) ** (1.0 - s) / (s - 1.0)
