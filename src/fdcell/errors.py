"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value or file."""


class PlacementError(RuntimeError):
    """Random placement could not satisfy the layout constraints."""
