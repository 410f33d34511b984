"""Formation control simulator with stream-function collision avoidance."""

__version__ = "0.1.0"

from .geom import Vec2, wrap_angle, circumcenter, DegenerateTriangle

__all__ = ["Vec2", "wrap_angle", "circumcenter", "DegenerateTriangle"]
