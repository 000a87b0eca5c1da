"""Training experiments: Table III and Table IV.

The paper trains ResNet-20/VGG16 on CIFAR-10 and ResNet-50 on Imagewoof
for 100-200 epochs; the reproduction runs the same pipeline at selectable
scale on the synthetic datasets (DESIGN.md, substitutions 4-5).  Scales:

* ``tiny``   — MLP, a few epochs; used by the tier-1 tests.
* ``small``  — CNN/ResNet-8 on 8px images; the scale the docs quote
  (minutes per table).
* ``medium`` — ResNet-8/VGG-small on 12px images, more epochs (tens of
  minutes per table).

The paper's tables have a shape: r=4 collapses, accuracy is monotone
in r, r=13 lands near the FP32 baseline and at least matches RN-FP16,
and subnormal support stops mattering for r >= 11.  These presets do
not reproduce the r=4 collapse (docs/reproducing-tables.md quotes a
``small`` run); only the subnormal rows agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..data import loaders_for, make_cifar10_like, make_imagewoof_like
from ..data.synthetic import Dataset
from ..emu import GemmConfig, QuantizedGemm, paper_table3_config
from ..models import MLP, SimpleCNN, resnet8, resnet50_style, vgg_small
from ..nn import Trainer


@dataclass
class TrainingScale:
    """Resource preset for one experiment run."""

    name: str
    n_train: int
    n_test: int
    image_size: int
    epochs: int
    batch_size: int
    model: str          # "mlp", "cnn", "resnet8", "vgg_small", "resnet50"
    width: int
    lr: float
    weight_decay: float


SCALES: Dict[str, TrainingScale] = {
    "tiny": TrainingScale("tiny", 400, 120, 8, 3, 128, "mlp", 48,
                          lr=0.05, weight_decay=1e-4),
    "small": TrainingScale("small", 640, 200, 8, 12, 128, "cnn", 8,
                           lr=0.05, weight_decay=1e-4),
    "medium": TrainingScale("medium", 1280, 320, 12, 16, 128, "resnet8", 8,
                            lr=0.1, weight_decay=1e-4),
}


def build_model(scale: TrainingScale, dataset: Dataset,
                gemm: Optional[Callable], seed: int):
    channels, height, width = dataset.image_shape
    if scale.model == "mlp":
        return MLP(channels * height * width, [scale.width, scale.width // 2],
                   dataset.num_classes, gemm=gemm, seed=seed)
    if scale.model == "cnn":
        return SimpleCNN(dataset.num_classes, channels, scale.width,
                         gemm=gemm, seed=seed)
    if scale.model == "resnet8":
        return resnet8(dataset.num_classes, scale.width, gemm=gemm, seed=seed)
    if scale.model == "resnet20":
        from ..models import resnet20
        return resnet20(dataset.num_classes, scale.width, gemm=gemm, seed=seed)
    if scale.model == "vgg_small":
        return vgg_small(dataset.num_classes, image_size=height,
                         gemm=gemm, seed=seed)
    if scale.model == "resnet50":
        return resnet50_style(dataset.num_classes, scale.width,
                              blocks_per_stage=[1, 1, 1], gemm=gemm, seed=seed)
    raise ValueError(f"unknown model kind {scale.model!r}")


def build_gemm(gemm_config: Optional[GemmConfig],
               workers: int = 1) -> Optional[QuantizedGemm]:
    """The GEMM executor for a run (``None`` for the FP64 baseline).

    ``workers`` shards every GEMM across that many processes without
    changing a bit: the executor's draw order depends only on the
    config's stream (DESIGN.md section 4), so a run is bit-identical
    for any ``workers`` at the same seed.
    """
    if gemm_config is None:
        return None
    return QuantizedGemm(gemm_config, workers=workers)


def train_once(dataset: Dataset, scale: TrainingScale,
               gemm_config: Optional[GemmConfig], seed: int = 1,
               log: Optional[Callable[[str], None]] = None,
               workers: int = 1) -> float:
    """Train one configuration; returns final test accuracy (percent)."""
    gemm = build_gemm(gemm_config, workers)
    model = build_model(scale, dataset, gemm, seed)
    train_loader, test_loader = loaders_for(
        dataset, batch_size=scale.batch_size, seed=seed)
    trainer = Trainer(model, lr=scale.lr, epochs=scale.epochs,
                      weight_decay=scale.weight_decay, log=log)
    result = trainer.fit(train_loader, test_loader)
    return 100.0 * result.final_accuracy


@dataclass
class AccuracyRow:
    label: str
    e_bits: int
    m_bits: int
    rbits: Optional[int]
    accuracy: float
    paper_accuracy: float


def row_gemm_config(kind: str, rbits: Optional[int], subnormals: bool,
                    seed: int,
                    accum_order: str = "sequential") -> Optional[GemmConfig]:
    """The datapath of one Table III/IV or transformer-sweep row.

    ``kind`` is a :func:`repro.emu.paper_table3_config` row kind.  The
    baseline row gets ``None``: it trains on the plain FP64
    ``default_gemm``, not through the executor.
    """
    if kind == "baseline":
        return None
    return paper_table3_config(kind, rbits, subnormals=subnormals,
                               seed=seed, accum_order=accum_order)


def run_table3(scale_name: str = "small", seed: int = 1,
               log: Optional[Callable[[str], None]] = None,
               accum_order: str = "sequential",
               workers: int = 1) -> List[AccuracyRow]:
    """Table III: accuracy vs (E, M) and r on the CIFAR-10 stand-in.

    ``accum_order`` selects the accumulation engine for every quantized
    row (datapath ablation: ``sequential`` reproduces the paper's MAC
    chain, ``pairwise``/``chunked(c)`` model adder-tree and blocked
    accumulators); ``workers`` shards every emulated GEMM across that
    many processes (see :func:`build_gemm`).
    """
    from . import records

    scale = SCALES[scale_name]
    dataset = make_cifar10_like(scale.n_train, scale.n_test,
                                scale.image_size, seed=0)
    rows = []
    for label, kind, subnormals, e_bits, m_bits, rbits, paper_acc \
            in records.TABLE3:
        config = row_gemm_config(kind, rbits, subnormals, seed,
                                 accum_order)
        if log is not None:
            log(f"[table3/{scale_name}] {label} E{e_bits}M{m_bits} r={rbits}"
                + ("" if accum_order == "sequential"
                   else f" [{accum_order}]"))
        accuracy = train_once(dataset, scale, config, seed=seed,
                              workers=workers)
        rows.append(AccuracyRow(label, e_bits, m_bits, rbits, accuracy,
                                paper_acc))
        if log is not None:
            log(f"    -> {accuracy:.2f}% (paper {paper_acc}%)")
    return rows


def run_table4(scale_name: str = "small", seed: int = 1,
               log: Optional[Callable[[str], None]] = None,
               accum_order: str = "sequential",
               workers: int = 1) -> Dict[str, List[AccuracyRow]]:
    """Table IV: VGG16/CIFAR10-like and ResNet50/Imagewoof-like."""
    from . import records

    base = SCALES[scale_name]
    results: Dict[str, List[AccuracyRow]] = {}

    workloads = {
        "vgg16_cifar10": (
            TrainingScale(base.name, base.n_train, base.n_test,
                          base.image_size, base.epochs, base.batch_size,
                          "vgg_small" if base.name != "tiny" else "mlp",
                          base.width, lr=0.02, weight_decay=5e-4),
            make_cifar10_like(base.n_train, base.n_test, base.image_size,
                              seed=0),
        ),
        "resnet50_imagewoof": (
            TrainingScale(base.name, base.n_train, base.n_test,
                          max(base.image_size, 8), base.epochs,
                          min(base.batch_size, 64),
                          "resnet50" if base.name != "tiny" else "mlp",
                          base.width, lr=0.02, weight_decay=1e-4),
            make_imagewoof_like(base.n_train, base.n_test,
                                max(base.image_size, 8), seed=7),
        ),
    }

    for workload_name, (scale, dataset) in workloads.items():
        rows = []
        for label, kind, subnormals, e_bits, m_bits, rbits, paper_acc \
                in records.TABLE4[workload_name]:
            config = row_gemm_config(kind, rbits, subnormals, seed,
                                     accum_order)
            if log is not None:
                log(f"[table4/{workload_name}] {label}"
                    + ("" if accum_order == "sequential"
                       else f" [{accum_order}]"))
            accuracy = train_once(dataset, scale, config, seed=seed,
                                  workers=workers)
            rows.append(AccuracyRow(label, e_bits, m_bits, rbits, accuracy,
                                    paper_acc))
            if log is not None:
                log(f"    -> {accuracy:.2f}% (paper {paper_acc}%)")
        results[workload_name] = rows
    return results


def format_accuracy_rows(rows: List[AccuracyRow], title: str = "") -> str:
    lines = []
    if title:
        lines.append(title)
    lines.append(
        f"{'Configuration':<18}{'E':>3}{'M':>4}{'r':>5}"
        f"{'Accuracy %':>12}{'(paper %)':>11}"
    )
    for row in rows:
        lines.append(
            f"{row.label:<18}{row.e_bits:>3}{row.m_bits:>4}"
            f"{row.rbits if row.rbits is not None else '-':>5}"
            f"{row.accuracy:12.2f}{row.paper_accuracy:11.2f}"
        )
    return "\n".join(lines)
