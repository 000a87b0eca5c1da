"""Published numbers from the paper, used for calibration and comparison.

Every table of the paper's evaluation is transcribed here verbatim so the
experiment harnesses can print paper-vs-measured columns.  This module is
a leaf: it imports nothing from the rest of the package.

Keys use the configuration tuple ``(rounding, subnormals, E, M, r)`` with
``rounding`` in {"rn", "sr_lazy", "sr_eager"}.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

ConfigKey = Tuple[str, bool, int, int, int]


class AsicRow(NamedTuple):
    energy_nw_mhz: float
    area_um2: float
    delay_ns: float


# ---------------------------------------------------------------------------
# Table I: hardware cost for different FP adder configurations
# (FDSOI 28nm, Synopsys Design Vision, relaxed timing, area-optimized)
# ---------------------------------------------------------------------------
TABLE1: Dict[ConfigKey, AsicRow] = {
    # RN with subnormals
    ("rn", True, 8, 23, 0): AsicRow(1.17, 1404.01, 4.71),
    ("rn", True, 5, 10, 0): AsicRow(0.65, 692.62, 2.73),
    ("rn", True, 8, 7, 0): AsicRow(0.52, 581.05, 2.14),
    ("rn", True, 6, 5, 0): AsicRow(0.42, 479.81, 1.88),
    # RN without subnormals
    ("rn", False, 8, 23, 0): AsicRow(1.15, 1337.42, 4.69),
    ("rn", False, 5, 10, 0): AsicRow(0.64, 662.43, 2.75),
    ("rn", False, 8, 7, 0): AsicRow(0.52, 562.44, 2.28),
    ("rn", False, 6, 5, 0): AsicRow(0.42, 462.67, 1.88),
    # SR lazy with subnormals
    ("sr_lazy", True, 8, 23, 27): AsicRow(1.62, 1897.36, 5.19),
    ("sr_lazy", True, 5, 10, 14): AsicRow(0.89, 938.73, 2.99),
    ("sr_lazy", True, 8, 7, 11): AsicRow(0.66, 833.84, 2.77),
    ("sr_lazy", True, 6, 5, 9): AsicRow(0.57, 636.64, 2.20),
    # SR lazy without subnormals
    ("sr_lazy", False, 8, 23, 27): AsicRow(1.48, 1677.37, 5.50),
    ("sr_lazy", False, 5, 10, 14): AsicRow(0.81, 839.34, 3.18),
    ("sr_lazy", False, 8, 7, 11): AsicRow(0.64, 751.74, 2.83),
    ("sr_lazy", False, 6, 5, 9): AsicRow(0.57, 615.10, 2.05),
    # SR eager with subnormals
    ("sr_eager", True, 8, 23, 27): AsicRow(1.37, 1550.89, 4.75),
    ("sr_eager", True, 5, 10, 14): AsicRow(0.76, 777.48, 2.72),
    ("sr_eager", True, 8, 7, 11): AsicRow(0.61, 670.41, 2.33),
    ("sr_eager", True, 6, 5, 9): AsicRow(0.50, 549.49, 1.87),
    # SR eager without subnormals
    ("sr_eager", False, 8, 23, 27): AsicRow(1.35, 1497.52, 4.73),
    ("sr_eager", False, 5, 10, 14): AsicRow(0.70, 718.41, 2.63),
    ("sr_eager", False, 8, 7, 11): AsicRow(0.61, 661.54, 2.50),
    ("sr_eager", False, 6, 5, 9): AsicRow(0.51, 558.63, 1.87),
}

#: Calibration anchor: the FP32 RN with-subnormals row.
TABLE1_ANCHOR: ConfigKey = ("rn", True, 8, 23, 0)


class FpgaRow(NamedTuple):
    luts: int
    ffs: int
    delay_ns: float


# ---------------------------------------------------------------------------
# Table II: FPGA implementation results (Vivado 2022.1, VU9P)
# ---------------------------------------------------------------------------
TABLE2: Dict[ConfigKey, FpgaRow] = {
    ("rn", True, 5, 10, 0): FpgaRow(302, 49, 8.30),
    ("rn", False, 5, 10, 0): FpgaRow(301, 49, 8.29),
    ("sr_lazy", False, 6, 5, 13): FpgaRow(344, 59, 8.76),
    ("sr_eager", False, 6, 5, 13): FpgaRow(251, 59, 8.04),
}

TABLE2_ANCHOR: ConfigKey = ("rn", True, 5, 10, 0)


# ---------------------------------------------------------------------------
# Table III: ResNet20 / CIFAR10 accuracy vs format and random bits
# rows: (label, kind, subnormals, E, M, r) -> accuracy %
# kind is a repro.emu.paper_table3_config row kind; "baseline" marks the
# FP32 reference.
# ---------------------------------------------------------------------------
TABLE3 = [
    ("FP32 Baseline", "baseline", True, 8, 23, None, 91.47),
    ("RN W/ Sub", "rn_fp16", True, 5, 10, None, 91.10),
    ("RN W/ Sub", "rn_bf16", True, 8, 7, None, 88.79),
    ("RN W/ Sub", "rn_e6m5", True, 6, 5, None, 83.03),
    ("SR W/ Sub", "sr", True, 6, 5, 4, 43.11),
    ("SR W/ Sub", "sr", True, 6, 5, 9, 89.34),
    ("SR W/ Sub", "sr", True, 6, 5, 11, 90.70),
    ("SR W/ Sub", "sr", True, 6, 5, 13, 91.39),
    ("SR W/O Sub", "sr", False, 6, 5, 11, 90.67),
    ("SR W/O Sub", "sr", False, 6, 5, 13, 91.39),
]


# ---------------------------------------------------------------------------
# Table IV: VGG16 / CIFAR10 and ResNet50 / Imagewoof accuracy
# ---------------------------------------------------------------------------
TABLE4 = {
    "vgg16_cifar10": [
        ("FP32 Baseline", "baseline", True, 8, 23, None, 93.46),
        ("RN W/ Sub", "rn_fp16", True, 5, 10, None, 93.06),
        ("SR W/O Sub", "sr", False, 6, 5, 13, 93.11),
    ],
    "resnet50_imagewoof": [
        ("FP32 Baseline", "baseline", True, 8, 23, None, 80.94),
        ("RN W/ Sub", "rn_fp16", True, 5, 10, None, 80.30),
        ("SR W/O Sub", "sr", False, 6, 5, 13, 80.33),
    ],
}


# ---------------------------------------------------------------------------
# Table V: impact of random bits r on hardware overhead
# (SR eager W/O Sub, E6M5) plus RN reference rows.
# ---------------------------------------------------------------------------
TABLE5_SR_EAGER = {
    # r: (delay_ns, area_um2, energy_uw_mhz)
    4: (1.85, 508.36, 0.46),
    7: (1.87, 540.19, 0.49),
    9: (1.87, 558.63, 0.51),
    11: (1.93, 579.19, 0.53),
    13: (1.93, 601.71, 0.56),
}
TABLE5_REFERENCES = {
    ("rn", True, 5, 10, 0): (2.73, 692.62, 0.65),
    ("rn", True, 8, 23, 0): (4.71, 1404.01, 1.17),
}


# ---------------------------------------------------------------------------
# Headline savings claimed in Sec. IV-C / conclusion
# ---------------------------------------------------------------------------
CLAIMED_SAVINGS = {
    # eager E6M5 SR w/o sub vs FP32 RN w/ sub: ~50% on all metrics
    "vs_fp32": {"delay": 0.50, "area": 0.50, "energy": 0.50},
    # vs FP16 RN w/ sub: >29% delay, ~13% area and energy
    "vs_fp16": {"delay": 0.293, "area": 0.131, "energy": 0.13},
    # eager vs lazy: up to 26.6% latency and 18.5% area savings
    "eager_vs_lazy_max": {"delay": 0.266, "area": 0.185},
}
