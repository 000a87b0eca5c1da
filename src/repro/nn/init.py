"""Weight initializers (He / Kaiming normal)."""

from __future__ import annotations

import numpy as np


def kaiming_normal(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He initialization for ReLU networks: N(0, sqrt(2 / fan_in))."""
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)
