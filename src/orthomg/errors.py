"""Exception types shared across the solver stack."""

__all__ = [
    "SingularMatrixError",
    "NumericalFailureError",
    "ExchangeTimeoutError",
    "WorkerError",
]


class SingularMatrixError(ValueError):
    """A factorization hit an exactly singular pivot, block, or subdomain."""


class NumericalFailureError(RuntimeError):
    """A smoother or cycle produced non-finite intermediate values."""


class ExchangeTimeoutError(RuntimeError):
    """No coarse correction crossed a level boundary within the watchdog window."""


class WorkerError(RuntimeError):
    """A worker thread died; records which level and role failed."""

    def __init__(self, level, role, cause):
        super().__init__(f"worker at level {level} ({role} role) failed: {cause}")
        self.level = level
        self.role = role
        self.cause = cause
