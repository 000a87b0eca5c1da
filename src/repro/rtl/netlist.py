"""Structural netlist and cost accounting framework.

The paper's hardware numbers come from Synopsys RTL synthesis; this
repository replaces that flow with a structural cost model: each adder/MAC
variant is elaborated into a :class:`Netlist` of :class:`Component`
instances (adders, shifters, leading-zero detectors, ...), each carrying

* a bag of primitive gate counts (NAND2-equivalent area accounting),
* a logic depth in normalized gate delays (``tau``),
* a switching-activity factor used for energy estimation.

Components are grouped into ordered *stages*; the critical path is the sum
over stages of the deepest component in each stage (components within a
stage operate in parallel).  Technology mapping to µm² / ns / nW/MHz (or
LUT/FF counts) lives in :mod:`repro.synth`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

#: Area of each primitive in NAND2 gate equivalents (GE).
PRIMITIVE_AREA_GE: Dict[str, float] = {
    "inv": 0.7,
    "nand2": 1.0,
    "and2": 1.5,
    "or2": 1.5,
    "xor2": 2.2,
    "mux2": 2.2,
    "ff": 4.5,
}


@dataclass
class Component:
    """One structural building block with its cost annotations.

    ``kind`` identifies the block family ("ripple_adder", "barrel_shifter",
    ...) so technology mappers can apply family-specific formulas (e.g.
    FPGA carry chains).  ``width`` is the principal bit width.
    """

    name: str
    kind: str
    width: int
    gates: Dict[str, float] = field(default_factory=dict)
    delay_tau: float = 0.0
    activity: float = 0.3

    @property
    def area_ge(self) -> float:
        return sum(PRIMITIVE_AREA_GE[g] * n for g, n in self.gates.items())

    @property
    def energy_weight(self) -> float:
        """Switched-capacitance proxy: area x activity."""
        return self.area_ge * self.activity

    @property
    def ff_count(self) -> float:
        return self.gates.get("ff", 0.0)


class Netlist:
    """An ordered sequence of stages, each a list of parallel components."""

    def __init__(self, name: str):
        self.name = name
        self.stages: List[Tuple[str, List[Component]]] = []

    def stage(self, stage_name: str, components: Iterable[Component]) -> "Netlist":
        """Append a pipeline-free stage; returns self for chaining."""
        comps = [c for c in components if c is not None]
        if comps:
            self.stages.append((stage_name, comps))
        return self

    def off_path(self, stage_name: str, components: Iterable[Component]) -> "Netlist":
        """Components contributing area/energy but not critical-path delay.

        Used for logic that operates in parallel with an existing stage
        and finishes earlier (e.g. the eager design's Sticky Round block,
        or the asynchronous LFSR).
        """
        comps = [
            Component(c.name, c.kind, c.width, c.gates, 0.0, c.activity)
            for c in components if c is not None
        ]
        if comps:
            self.stages.append((stage_name + " (off-path)", comps))
        return self

    # -- aggregate costs ------------------------------------------------
    def components(self) -> List[Component]:
        return [c for _, comps in self.stages for c in comps]

    @property
    def area_ge(self) -> float:
        return sum(c.area_ge for c in self.components())

    @property
    def delay_tau(self) -> float:
        return sum(
            max((c.delay_tau for c in comps), default=0.0)
            for _, comps in self.stages
        )

    @property
    def energy_weight(self) -> float:
        return sum(c.energy_weight for c in self.components())

    @property
    def ff_count(self) -> float:
        return sum(c.ff_count for c in self.components())

    def merge(self, other: "Netlist") -> "Netlist":
        """Concatenate another netlist's stages (serial composition)."""
        merged = Netlist(f"{self.name}+{other.name}")
        merged.stages = list(self.stages) + list(other.stages)
        return merged

    def report(self) -> str:
        """Human-readable per-stage cost breakdown."""
        lines = [f"netlist {self.name}: "
                 f"area={self.area_ge:.0f} GE, depth={self.delay_tau:.1f} tau"]
        for stage_name, comps in self.stages:
            depth = max((c.delay_tau for c in comps), default=0.0)
            area = sum(c.area_ge for c in comps)
            parts = ", ".join(f"{c.name}[{c.width}]" for c in comps)
            lines.append(
                f"  {stage_name:<24} area={area:7.1f} GE  depth={depth:5.1f}  {parts}"
            )
        return "\n".join(lines)
