"""Multi-cell TDD simulator with full-duplex base stations.

Scheduling couples a greedy proportional-fair mode/user selection with a
successive convexification power allocator built on a small geometric
programming core. Indoor and outdoor deployments, several baseline
schedulers, and the measurement pipeline live in the submodules.
"""

__version__ = "0.1.0"

from .errors import ConfigError, PlacementError

__all__ = ["ConfigError", "PlacementError", "__version__"]
