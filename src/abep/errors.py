"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(ToolkitError):
    """Model or sampler parameters violate a documented precondition."""


class DomainError(ToolkitError):
    """Input configuration lies outside the image of the energy transform."""


class NumericalBlowup(ToolkitError):
    """A simulated trajectory exceeded the configured magnitude cap."""


class SimulationCap(ToolkitError):
    """An event-driven run hit its safety cap before finishing."""


class RejectionStall(ToolkitError):
    """Rejection sampler has a predicted acceptance below 1e-6."""


class SingularSystem(ToolkitError):
    """A linear system that should be regular failed to solve."""


class ConfigError(ToolkitError):
    """Malformed command line or configuration file input."""


class RouteMismatch(ToolkitError):
    """Two independent routes to the same quantity disagree."""


class SiteError(ToolkitError, IndexError):
    """Site indices outside 1..N or out of order."""
