"""sdlab: a desk-scale laboratory for diffusion operators with singular drifts.

Builds the resolvent of -Laplacian + b.grad on a periodic torus from
weighted spectral factors inverted by a guarded Neumann series, drives
the semigroup by backward Euler through that resolvent, verifies the
pointwise kernel estimates grid-free in closed form, and cross-validates
the induced diffusion by Monte Carlo.
"""

__version__ = "0.1.0"

from .constants import interval_I, kappa_d, m_d
from .fields import (
    ClassEstimate,
    DriftSpec,
    drift_from_config,
    estimate_class_F,
    estimate_class_F_half,
    estimate_class_K,
    mollify,
    truncate,
)
from .grid import (
    Grid,
    GridFunction,
    GridVectorField,
    bessel_norm,
    gradient_apply,
    laplacian_apply,
    lp_norm,
    pairing,
)
from .resolvent import REPRESENTATIONS, ResolventAssembly, ResolventParams
from .semigroup import SemigroupParams, evolve
from .sim import SimParams, simulate_paths

__all__ = [
    "__version__",
    "Grid",
    "GridFunction",
    "GridVectorField",
    "lp_norm",
    "pairing",
    "bessel_norm",
    "laplacian_apply",
    "gradient_apply",
    "m_d",
    "kappa_d",
    "interval_I",
    "DriftSpec",
    "drift_from_config",
    "ClassEstimate",
    "truncate",
    "mollify",
    "estimate_class_F",
    "estimate_class_F_half",
    "estimate_class_K",
    "ResolventParams",
    "ResolventAssembly",
    "REPRESENTATIONS",
    "SemigroupParams",
    "evolve",
    "SimParams",
    "simulate_paths",
]
