"""Covert communication over the unit-noise AWGN channel.

Truncated-Gaussian shell codes, exact Gaussian divergences, KL-budget power
planning, finite-blocklength throughput bounds, and seeded Monte-Carlo
experiments with an optimal-detector adversary.
"""

from . import bounds, divergences, errors, planner, simkit, truncgauss
from .bounds import *
from .divergences import *
from .errors import *
from .planner import *
from .simkit import *
from .truncgauss import *

__version__ = "0.1.0"

__all__ = [
    *bounds.__all__,
    *divergences.__all__,
    *errors.__all__,
    *planner.__all__,
    *simkit.__all__,
    *truncgauss.__all__,
]
