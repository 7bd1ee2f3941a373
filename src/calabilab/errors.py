"""Exception types shared across the package."""


class CalabiLabError(Exception):
    """Base class for every error raised by this package."""


class NonKahler(CalabiLabError):
    """Metric positivity fell below the floor: the state left the Kahler cone.

    Downstream curvature formulas are meaningless past this point, so the
    failure is raised instead of clamped.
    """


class DomainError(CalabiLabError):
    """A trace query outside the domain where the quantity is defined."""


class BadParams(CalabiLabError):
    """Invalid parameters for a synthetic-trace generator or preset."""


class TraceIOError(CalabiLabError):
    """Base class for serialization errors."""


class VersionMismatch(TraceIOError):
    """File declares a format version this build does not support."""


class SchemaMismatch(TraceIOError):
    """File header is inconsistent with the expected schema or backend."""


class CorruptFile(TraceIOError):
    """File body is damaged: truncated, malformed, or arity-inconsistent."""
