"""Piecewise-linear LUT fitting for hardware-friendly non-linear operators.

The toolkit evolves breakpoint placements with a genetic algorithm,
quantizes the resulting tables for integer-only datapaths, simulates the
integer LUT arithmetic bit-accurately, and exports hardware-ready tables.
"""

__version__ = "0.1.0"

from .fxp import DatapathConfig
from .nonlin import Kind, NonLinSpec, default_spec, eval_ref
from .pwl import BreakpointSet, PwlTable, derive_table, eval_pwl, fitness_mse, fxp_round_table
from .evolve import GaConfig, MutationKind, evolve
from .quant import (
    PowTwoScale,
    QPwlTable,
    RangeScalingPlan,
    dequantize,
    fxp_quantize_table,
    get_plan,
    quantize,
    quantize_table,
    select_subrange,
)
from .intsim import int_pwl, segment_index
from .evalbench import (
    ScaleSweepReport,
    quant_aware_mse,
    sweep_scales,
    wide_range_mse,
)

__all__ = [
    "Kind",
    "NonLinSpec",
    "default_spec",
    "eval_ref",
    "BreakpointSet",
    "PwlTable",
    "derive_table",
    "eval_pwl",
    "fitness_mse",
    "fxp_round_table",
    "GaConfig",
    "MutationKind",
    "evolve",
    "PowTwoScale",
    "QPwlTable",
    "RangeScalingPlan",
    "quantize",
    "dequantize",
    "quantize_table",
    "fxp_quantize_table",
    "select_subrange",
    "get_plan",
    "DatapathConfig",
    "segment_index",
    "int_pwl",
    "ScaleSweepReport",
    "quant_aware_mse",
    "sweep_scales",
    "wide_range_mse",
]
