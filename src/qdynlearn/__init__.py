"""Density-matrix simulator and trainer for learned entanglement witnesses."""

__version__ = "0.1.0"
