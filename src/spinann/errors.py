"""Exception types shared across the simulator."""


class SpinAnnError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SpinAnnError):
    """Invalid configuration: bad parameter values, malformed tables or files."""


class DomainError(SpinAnnError, ValueError):
    """An argument is outside the physically valid range of an operation."""


class SearchError(SpinAnnError):
    """A hidden-size search hit its cap without reaching the target accuracy."""


class TrainingError(SpinAnnError):
    """A fixed training schedule failed to reach its required accuracy."""
