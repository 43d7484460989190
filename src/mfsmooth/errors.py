"""Exception types shared across the package."""


class MfsmoothError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(MfsmoothError):
    """Inconsistent model dimensions, lag orders or config values."""


class SingularInnovationError(MfsmoothError):
    """Innovation covariance numerically singular during filtering."""

    def __init__(self, t: int, message: str | None = None):
        self.t = t
        super().__init__(message or f"innovation covariance singular at period t={t}")


class InitializationError(MfsmoothError):
    """Filter initialization failed (e.g. explosive VAR in stationary mode)."""


class OracleSizeError(MfsmoothError):
    """Brute-force oracle requested for an instance above its size cap."""
