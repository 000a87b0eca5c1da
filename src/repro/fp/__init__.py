"""Parameterized floating-point formats, rounding, and quantization.

This package is the numerical foundation of the reproduction: exact
scalar rounding semantics (:mod:`repro.fp.rounding`), fast vectorized
quantization (:mod:`repro.fp.quantize`), and bit-pattern conversion
(:mod:`repro.fp.encode`) for the RTL models.
"""

from .formats import (
    BF16,
    FP8_E4M3,
    FP8_E5M2,
    FP12_E6M5,
    FP16,
    FP32,
    PAPER_ADDER_FORMATS,
    FPFormat,
    get_format,
)
from .encode import all_finite_values, decode, decode_one, encode, encode_one
from .quantize import quantize
from .rounding import (
    OVERFLOW,
    ROUNDING_MODES,
    round_float,
    round_to_format,
    rounding_candidates,
    sr_probability,
)
from .summation import (
    ALGORITHMS,
    RoundingPolicy,
    blocked_sum,
    kahan_sum,
    pairwise_sum,
    recursive_sum,
    two_precision_sum,
)

__all__ = [
    "FPFormat",
    "FP32",
    "FP16",
    "BF16",
    "FP12_E6M5",
    "FP8_E5M2",
    "FP8_E4M3",
    "PAPER_ADDER_FORMATS",
    "get_format",
    "encode",
    "decode",
    "encode_one",
    "decode_one",
    "all_finite_values",
    "quantize",
    "round_to_format",
    "round_float",
    "rounding_candidates",
    "sr_probability",
    "ROUNDING_MODES",
    "OVERFLOW",
    "RoundingPolicy",
    "recursive_sum",
    "pairwise_sum",
    "blocked_sum",
    "kahan_sum",
    "two_precision_sum",
    "ALGORITHMS",
]
