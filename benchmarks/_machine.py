"""Shared machine-description block for every benchmark JSON report.

The ``bench_*.py`` reports (and CI's artifacts of them) and srbench's
report embed the same ``"machine"`` object, so numbers recorded in
different environments are comparable at a glance — in particular, a
1-CPU container's honest ~1x parallel "speedups" carry their
explanation in the report itself instead of a prose caveat.

Example::

    from _machine import machine_info
    report = {"benchmark": "...", "machine": machine_info(), ...}
"""

import os
import platform

import numpy as np

#: Bump when the machine-info layout changes, so downstream consumers
#: comparing reports can detect incompatible blocks.
MACHINE_SCHEMA = 1


def machine_info() -> dict:
    """The environment fingerprint embedded in every bench JSON report.

    Example::

        info = machine_info()
        info["cpu_count"], info["numpy"]
    """
    return {
        "schema": MACHINE_SCHEMA,
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
