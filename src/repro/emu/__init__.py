"""Bit-accurate, vectorized MAC/GEMM emulation for DNN training."""

from .config import GemmConfig, paper_table3_config
from .engine import (
    AccumulationEngine,
    ChunkedEngine,
    ENGINES,
    PairwiseEngine,
    SequentialEngine,
    available_orders,
    get_engine,
)
from .gemm import (
    cast_inputs,
    dot,
    matmul,
    matmul_batched,
    reference_matmul,
    sum_reduce,
)
from .parallel import (
    BLOCK_ROWS,
    ParallelQuantizedGemm,
    QuantizedGemm,
    TileScheduler,
    resolve_workers,
)

__all__ = [
    "BLOCK_ROWS",
    "resolve_workers",
    "ParallelQuantizedGemm",
    "TileScheduler",
    "GemmConfig",
    "paper_table3_config",
    "QuantizedGemm",
    "matmul",
    "matmul_batched",
    "reference_matmul",
    "dot",
    "sum_reduce",
    "cast_inputs",
    "AccumulationEngine",
    "SequentialEngine",
    "PairwiseEngine",
    "ChunkedEngine",
    "ENGINES",
    "get_engine",
    "available_orders",
]
