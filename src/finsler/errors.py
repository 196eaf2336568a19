"""Exception taxonomy.

Kept small and flat: callers (and the CLI exit-code mapping) only need to
distinguish bad input (config/chart/cone), failed numerics (solver,
evaluation), and verification outcomes, which are reported, not raised.
"""


class FinslerError(Exception):
    """Base class for all package errors."""


class ConeError(FinslerError, ValueError):
    """A vector is outside the admissible cone (or its closure) where required."""


class EvaluationError(FinslerError, ArithmeticError):
    """A Lagrangian/field evaluation produced a non-finite value or blew up."""


class SignatureError(FinslerError, ValueError):
    """The fundamental tensor is degenerate or has the wrong signature."""


class NoGradientError(FinslerError, ValueError):
    """df is not positive on the admissible cone, so no gradient exists."""


class SolverError(FinslerError, RuntimeError):
    """An iterative solver (Newton, fixed point, ODE) failed to converge."""


class ConstructionError(FinslerError, ValueError):
    """A Lagrangian constructor received inconsistent data (e.g. empty cone)."""


class ChartError(FinslerError, ValueError):
    """Coordinates do not satisfy a required lightlike-form precondition."""


class ConfigError(FinslerError, ValueError):
    """CLI/JSON configuration violates the schema."""

