"""Tests for the netlist cost framework and component formulas."""

import pytest

from repro.rtl.components import (
    array_multiplier,
    barrel_shifter,
    carry_unit,
    comparator,
    control,
    exp_adder,
    incrementer,
    lfsr,
    lzd,
    mux_bus,
    or_tree,
    random_staging,
    register,
    ripple_adder,
)
from repro.rtl.netlist import Component, Netlist, PRIMITIVE_AREA_GE


class TestComponentCosts:
    def test_area_from_gate_bag(self):
        comp = Component("x", "test", 4, {"xor2": 2, "and2": 3})
        expected = 2 * PRIMITIVE_AREA_GE["xor2"] + 3 * PRIMITIVE_AREA_GE["and2"]
        assert comp.area_ge == pytest.approx(expected)

    def test_energy_weight_scales_with_activity(self):
        low = Component("x", "t", 4, {"and2": 10}, activity=0.1)
        high = Component("x", "t", 4, {"and2": 10}, activity=0.5)
        assert high.energy_weight == pytest.approx(5 * low.energy_weight)

    def test_ff_count(self):
        assert register("r", 12).ff_count == 12
        assert ripple_adder("a", 8).ff_count == 0


class TestComponentScaling:
    def test_adder_linear_in_width(self):
        a8 = ripple_adder("a", 8)
        a16 = ripple_adder("a", 16)
        assert a16.area_ge == pytest.approx(2 * a8.area_ge)
        assert a16.delay_tau > a8.delay_tau

    def test_exp_adder_faster_per_bit(self):
        sig = ripple_adder("s", 8)
        exp = exp_adder("e", 8)
        assert exp.delay_tau < sig.delay_tau
        assert exp.area_ge == pytest.approx(sig.area_ge)

    def test_carry_unit_log_depth(self):
        small = carry_unit("c", 4)
        big = carry_unit("c", 32)
        assert big.delay_tau - small.delay_tau < big.width - small.width
        assert big.area_ge > small.area_ge

    def test_barrel_shifter_stage_count(self):
        narrow = barrel_shifter("b", 8, 8)
        wide = barrel_shifter("b", 8, 64)
        assert wide.delay_tau > narrow.delay_tau  # more mux stages

    def test_barrel_area_scale(self):
        full = barrel_shifter("b", 8, 8)
        pruned = barrel_shifter("b", 8, 8, area_scale=0.5)
        assert pruned.area_ge == pytest.approx(full.area_ge / 2)

    def test_multiplier_quadratic(self):
        m3 = array_multiplier("m", 3)
        m6 = array_multiplier("m", 6)
        assert m6.area_ge > 3 * m3.area_ge

    def test_misc_components_positive(self):
        for comp in (lzd("l", 8), comparator("c", 8), mux_bus("m", 8),
                     or_tree("o", 8), incrementer("i", 8), lfsr("f", 9),
                     random_staging("s", 9), control("ctl", 4.0)):
            assert comp.area_ge > 0
            assert comp.delay_tau >= 0


class TestNetlist:
    def test_area_is_sum(self):
        net = Netlist("n")
        net.stage("s1", [ripple_adder("a", 8)])
        net.stage("s2", [incrementer("i", 8), mux_bus("m", 4)])
        expected = (ripple_adder("a", 8).area_ge + incrementer("i", 8).area_ge
                    + mux_bus("m", 4).area_ge)
        assert net.area_ge == pytest.approx(expected)

    def test_delay_is_serial_max_per_stage(self):
        net = Netlist("n")
        fast = mux_bus("m", 4)
        slow = ripple_adder("a", 16)
        net.stage("s1", [fast, slow])  # parallel -> max
        net.stage("s2", [incrementer("i", 8)])
        expected = slow.delay_tau + incrementer("i", 8).delay_tau
        assert net.delay_tau == pytest.approx(expected)

    def test_off_path_adds_area_not_delay(self):
        net = Netlist("n")
        net.stage("s1", [ripple_adder("a", 8)])
        before = net.delay_tau
        net.off_path("prng", [lfsr("f", 9)])
        assert net.delay_tau == pytest.approx(before)
        assert net.area_ge > ripple_adder("a", 8).area_ge

    def test_merge_concatenates(self):
        a = Netlist("a").stage("s", [mux_bus("m", 4)])
        b = Netlist("b").stage("s", [mux_bus("m", 4)])
        merged = a.merge(b)
        assert merged.area_ge == pytest.approx(2 * mux_bus("m", 4).area_ge)
        assert len(merged.stages) == 2

    def test_empty_stage_ignored(self):
        net = Netlist("n").stage("s", [])
        assert net.stages == []

    def test_report_contains_stages(self):
        net = Netlist("demo").stage("align", [barrel_shifter("b", 8, 8)])
        text = net.report()
        assert "demo" in text and "align" in text
