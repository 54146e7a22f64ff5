"""Car-following calibration and controller gain design for damping stop-and-go waves."""

__version__ = "0.1.0"
