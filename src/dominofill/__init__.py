"""Generalized domino tilings by rectangles with coprime sides.

The package builds tilings of finite lattice windows in any dimension from a
family of rectangular tiles whose sides are coprime along every axis.  The
core pieces are a symbolic coding of tilings as a nearest-neighbour shift
space, a deterministic collar-filling engine that interpolates between brick
walls, and a staged tower construction that drives tile frequencies to any
prescribed rational targets.
"""

from .brickfill import BrickWall, fill_between
from .geometry import Box, expand
from .numerics import validate_family
from .sft import build_alphabet
from .tower import TargetDistribution, plan_stages, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "Box",
    "BrickWall",
    "TargetDistribution",
    "build_alphabet",
    "expand",
    "fill_between",
    "plan_stages",
    "run_pipeline",
    "validate_family",
]
