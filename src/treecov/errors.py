"""Exception hierarchy shared across the package."""


class TreecovError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(TreecovError, ValueError):
    """Operands have mismatched or invalid dimensions."""


class InvalidArgumentError(TreecovError, ValueError):
    """An argument is outside the supported domain."""


class InvalidTreeError(TreecovError, ValueError):
    """A tree or split set violates a structural invariant."""


class UltrametricViolationError(TreecovError, ValueError):
    """A matrix failed strict-ultrametric validation.

    Carries the full validation report so callers can inspect the
    witnessing entries.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(f"matrix is not strictly ultrametric: {report.summary()}")

    def __reduce__(self):
        # rebuilt from the report, so the error survives a process boundary
        return type(self), (self.report,)


class NotPositiveDefiniteError(TreecovError, ValueError):
    """A symmetric factorization failed."""


class DataError(TreecovError, ValueError):
    """Input data contain non-finite or malformed values."""


class ConfigError(TreecovError, ValueError):
    """A run configuration file is malformed or inconsistent."""
