"""Bit-accurate RTL models of the paper's arithmetic units and their
structural netlists for cost estimation."""

from .adder_base import AdderResult, AdderTrace, FPAdderBase
from .adder_rn import FPAdderRN
from .adder_sr_eager import FPAdderSREager
from .adder_sr_lazy import FPAdderSRLazy
from .designs import build_adder_netlist, build_mac_netlist, build_multiplier_netlist
from .mac import MACConfig, MACUnit, ROUNDINGS, build_adder, paper_table1_configs
from .multiplier import ExactMultiplier, product_format
from .netlist import Component, Netlist, PRIMITIVE_AREA_GE
from .vectorized import VectorAdder, rtl_gemm_batched, rtl_reduce

__all__ = [
    "AdderResult",
    "AdderTrace",
    "FPAdderBase",
    "FPAdderRN",
    "FPAdderSRLazy",
    "FPAdderSREager",
    "ExactMultiplier",
    "product_format",
    "MACConfig",
    "MACUnit",
    "ROUNDINGS",
    "build_adder",
    "paper_table1_configs",
    "Component",
    "Netlist",
    "PRIMITIVE_AREA_GE",
    "build_adder_netlist",
    "build_mac_netlist",
    "build_multiplier_netlist",
    "VectorAdder",
    "rtl_gemm_batched",
    "rtl_reduce",
]
