"""Feasibility solving by Douglas-Rachford splitting over pluggable set
projections, with puzzle encodings, rate analysis, and benchmarks."""

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "bench",
    "cli",
    "constraints",
    "plotting",
    "puzzles",
    "splitting",
]
