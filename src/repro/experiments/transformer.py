"""Transformer workload: accuracy vs ``r`` on the batched SR datapath.

Extends the paper's CNN-only evaluation (Tables III/IV) with the
workload its conclusion points at: attention-dominated training.  A
:class:`repro.models.TinyTransformer` is trained on the procedural
motif-classification task (:mod:`repro.data.sequences`) with every GEMM
— Q/K/V/output projections, the per-head ``Q K^T`` / ``A V`` stacks,
the MLP and the classifier — on the emulated low-precision MAC, and the
accuracy is swept over the Table III axis: FP32 baseline, RN
accumulators, and SR with ``r`` in {4, 9, 11, 13}.

Softmax and LayerNorm stay FP32 (they are not GEMMs); DESIGN.md
section 6 documents the exact datapath split and the per-head substream
keying contract.

Determinism contract: every GEMM runs through the executor
(:func:`repro.experiments.training.build_gemm`), whose key-derived
substream schedule does not depend on the worker count, so results are
bit-identical for any ``--workers`` value at the same seed.

Like the CNN tables, the ``tiny`` scale is a smoke/CI preset whose
accuracies are noise-dominated; the Table III *shape* (low ``r`` hurts,
accuracy recovers with more random bits) is a ``small``-scale claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..data.sequences import make_sequence_classification, sequence_loaders_for
from ..emu import GemmConfig
from ..emu.config import paper_table3_config
from ..models.transformer import TinyTransformer
from ..nn import Trainer
from .training import build_gemm


@dataclass
class TransformerScale:
    """Resource preset for one transformer experiment run."""

    name: str
    n_train: int
    n_test: int
    seq_len: int
    vocab_size: int
    num_classes: int
    epochs: int
    batch_size: int
    d_model: int
    n_heads: int
    depth: int
    lr: float
    weight_decay: float


TRANSFORMER_SCALES: Dict[str, TransformerScale] = {
    "tiny": TransformerScale("tiny", 256, 96, 16, 16, 4, 3, 64,
                             d_model=32, n_heads=4, depth=1,
                             lr=0.05, weight_decay=1e-4),
    "small": TransformerScale("small", 384, 128, 24, 16, 5, 6, 64,
                              d_model=64, n_heads=8, depth=1,
                              lr=0.05, weight_decay=1e-4),
    "medium": TransformerScale("medium", 640, 192, 32, 24, 6, 10, 64,
                               d_model=64, n_heads=8, depth=2,
                               lr=0.05, weight_decay=1e-4),
}

#: The sweep rows, Table III style: (label, row kind, rbits).
TRANSFORMER_ROWS = [
    ("FP32 Baseline", "baseline", None),
    ("RN FP16 W/ Sub", "rn_fp16", None),
    ("RN E6M5 W/ Sub", "rn_e6m5", None),
    ("SR W/ Sub", "sr", 4),
    ("SR W/ Sub", "sr", 9),
    ("SR W/ Sub", "sr", 11),
    ("SR W/ Sub", "sr", 13),
]


@dataclass
class TransformerRow:
    """One sweep result; ``delta`` is measured minus the FP32 baseline."""

    label: str
    rbits: Optional[int]
    accuracy: float
    delta: float


def make_dataset(scale: TransformerScale):
    """The sweep's dataset for one scale (fixed generation seed, as in
    the CNN tables: rows differ only in the datapath)."""
    return make_sequence_classification(
        scale.n_train, scale.n_test, seq_len=scale.seq_len,
        vocab_size=scale.vocab_size, num_classes=scale.num_classes,
        bias=0.25, corrupt=0.15, seed=0)


def train_transformer_once(dataset, scale: TransformerScale,
                           gemm_config: Optional[GemmConfig],
                           seed: int = 1,
                           log: Optional[Callable[[str], None]] = None,
                           workers: int = 1) -> float:
    """Train one configuration; returns final test accuracy (percent)."""
    gemm = build_gemm(gemm_config, workers)
    model = TinyTransformer(dataset.vocab_size, dataset.num_classes,
                            d_model=scale.d_model, n_heads=scale.n_heads,
                            depth=scale.depth, max_len=dataset.seq_len,
                            gemm=gemm, seed=seed)
    train_loader, test_loader = sequence_loaders_for(
        dataset, batch_size=scale.batch_size, seed=seed)
    trainer = Trainer(model, lr=scale.lr, epochs=scale.epochs,
                      weight_decay=scale.weight_decay, log=log)
    result = trainer.fit(train_loader, test_loader)
    return 100.0 * result.final_accuracy


def run_transformer(scale_name: str = "tiny", seed: int = 1,
                    log: Optional[Callable[[str], None]] = None,
                    accum_order: str = "sequential",
                    workers: int = 1) -> List[TransformerRow]:
    """The accuracy-vs-``r`` sweep over :data:`TRANSFORMER_ROWS`.

    ``accum_order`` selects the accumulation engine for every quantized
    row (datapath ablation, as in Tables III/IV) and ``workers`` the
    tiled-parallel worker count (bit-identical for any value — see the
    module docstring).
    """
    scale = TRANSFORMER_SCALES[scale_name]
    dataset = make_dataset(scale)
    rows: List[TransformerRow] = []
    baseline: Optional[float] = None
    for label, kind, rbits in TRANSFORMER_ROWS:
        config = None if kind == "baseline" else paper_table3_config(
            kind, rbits, subnormals=True, seed=seed, accum_order=accum_order)
        if log is not None:
            suffix = "" if rbits is None else f" r={rbits}"
            order = "" if accum_order == "sequential" else f" [{accum_order}]"
            log(f"[transformer/{scale_name}] {label}{suffix}{order}")
        accuracy = train_transformer_once(dataset, scale, config, seed=seed,
                                          workers=workers)
        if baseline is None:
            baseline = accuracy
        rows.append(TransformerRow(label, rbits, accuracy,
                                   accuracy - baseline))
        if log is not None:
            log(f"    -> {accuracy:.2f}%")
    return rows


def format_transformer_rows(rows: List[TransformerRow],
                            title: str = "") -> str:
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'Configuration':<18}{'r':>5}{'Accuracy %':>12}"
                 f"{'vs FP32':>10}")
    for row in rows:
        lines.append(
            f"{row.label:<18}"
            f"{row.rbits if row.rbits is not None else '-':>5}"
            f"{row.accuracy:12.2f}{row.delta:+10.2f}"
        )
    return "\n".join(lines)
