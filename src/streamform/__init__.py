"""Formation control simulator with stream-function collision avoidance."""

__version__ = "0.1.0"
