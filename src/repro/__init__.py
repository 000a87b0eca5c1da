"""repro — reproduction of "A Stochastic Rounding-Enabled Low-Precision
Floating-Point MAC for DNN Training" (Ben Ali, Filip, Sentieys, DATE 2024).

Subpackages
-----------
``repro.fp``
    Parameterized floating-point formats, exact rounding semantics, and
    vectorized quantization.
``repro.prng``
    Galois LFSR random-bit generators (scalar bit-accurate + vectorized).
``repro.rtl``
    Bit-accurate register-transfer-level models of the paper's adders
    (RN, lazy SR, eager SR), the exact multiplier, and the assembled MAC,
    plus the gate-level netlist framework used for cost estimation.
``repro.synth``
    ASIC (28nm-like) and FPGA technology models that turn netlists into
    area / delay / energy reports (Tables I, II, V; Fig. 5).
``repro.emu``
    Fast vectorized bit-accurate MAC/GEMM emulation used inside training.
``repro.nn``
    A from-scratch numpy neural-network framework (layers, SGD, cosine
    annealing, dynamic loss scaling) whose GEMMs route through the MAC
    emulation.
``repro.models``
    ResNet / VGG / MLP model zoo.
``repro.data``
    Synthetic image-classification datasets standing in for CIFAR-10 and
    Imagewoof.
``repro.experiments``
    One runner per paper table/figure, with published values for
    comparison.
``repro.serve``
    Inference serving: eval-mode forward-only sessions with per-request SR
    keying, micro-batching, a content-keyed response cache, and a
    stdlib HTTP JSON API (``python -m repro.serve``).
"""

__version__ = "1.0.0"

from . import fp, prng  # noqa: F401

__all__ = ["fp", "prng", "__version__"]
