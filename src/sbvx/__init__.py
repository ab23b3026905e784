"""Numerical toolkit for piecewise-affine Sobolev approximation of planar
SBV maps with variable-exponent energies, with the supporting norm machinery,
energy diagnostics, and the 3D cone construction showing the planar argument
cannot lift to higher dimension."""

from .counterex3d import ConeComplex, annulus_measure, build_complex, verify_violation
from .dyadic_grid import AdaptedTriangulation, DyadicGrid, adapt_to_jump, build_grid, select_good_radius
from .energy import (
    BlowupFrame,
    DensityProbeConfig,
    EnergyBreakdown,
    blowup,
    density_probe,
    deviation,
    functional,
    functionals,
    jump_criterion_profile,
    upper_bound_competitor,
)
from .quadrature import Annulus, Disk, Rect
from .retract import RetractionConfig, choose_shift, project_w, sphere_retraction_gradient
from .sbv2d import (
    DiscreteSbvMap,
    JumpSet,
    bv_poincare_check,
    dilate_map,
    jump_length,
    total_variation_parts,
)
from .sobolev_approx import (
    ApproxReport,
    BallFamily,
    cover_jump,
    global_approx,
    local_phi,
    project_to_sphere_stage,
)
from .synth import synthesize
from .vexp import (
    ExponentField,
    LogHolderReport,
    embedding_constant,
    log_holder_diagnose,
    luxembourg_norm,
    modular,
)

__version__ = "0.1.0"

__all__ = [
    "Annulus", "Disk", "Rect",
    "ExponentField", "LogHolderReport", "modular", "luxembourg_norm",
    "log_holder_diagnose", "embedding_constant",
    "DiscreteSbvMap", "JumpSet", "jump_length", "total_variation_parts",
    "bv_poincare_check", "synthesize", "dilate_map",
    "DyadicGrid", "AdaptedTriangulation", "build_grid", "select_good_radius",
    "adapt_to_jump",
    "BallFamily", "ApproxReport", "local_phi", "cover_jump", "global_approx",
    "project_to_sphere_stage",
    "RetractionConfig", "sphere_retraction_gradient", "choose_shift", "project_w",
    "EnergyBreakdown", "BlowupFrame", "DensityProbeConfig", "functional",
    "functionals", "deviation", "upper_bound_competitor", "blowup", "jump_criterion_profile",
    "density_probe",
    "ConeComplex", "build_complex", "annulus_measure", "verify_violation",
]
