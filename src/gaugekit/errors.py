"""Exception types raised across the package.

Each operation with a checked precondition raises one of these rather than
letting a numpy error propagate, so callers can tell a contract violation
from a bug.
"""


class GaugekitError(Exception):
    """Base class for all package errors."""


class BadGeometry(GaugekitError):
    """Chart construction data is inconsistent (shapes, spacings, metric)."""


class NotTypeA(GaugekitError):
    """Chart lacks a unit-speed normal coordinate (g_nn != 1 somewhere)."""


class NotTypeB(GaugekitError):
    """Chart normal direction is not orthogonal to the tangential axes."""


class RankMismatch(GaugekitError):
    """Operation applied to a field of the wrong form degree."""


class ChartMismatch(GaugekitError):
    """Two fields from different charts were combined."""


class DbcViolation(GaugekitError):
    """Field fails its Dirichlet boundary condition beyond tolerance."""


class NoConvergence(GaugekitError):
    """Iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class NearCutLocus(GaugekitError):
    """Group logarithm requested too close to trace = -2."""


class NotHorizontal(GaugekitError):
    """Curvature input fails the horizontality residual gate."""


class WindowTooSmall(GaugekitError):
    """Support does not fit inside the construction window's inner band."""


class SupportTouchesBoundary(GaugekitError):
    """Interior construction input reaches within two cells of the boundary."""


class KernelConditionViolated(GaugekitError):
    """Kernel-decomposition input fails the boundary kernel gate."""


class HopfViolation(GaugekitError):
    """Normal derivative of the auxiliary potential is not strictly positive."""


class BadCover(GaugekitError):
    """Partition-of-unity request cannot cover the boundary as asked."""


class ConfigError(GaugekitError):
    """Run configuration file or overrides are malformed."""
