"""Systolic-array extension tests (the paper's future-work direction)."""

import numpy as np
import pytest

from repro.emu import GemmConfig, matmul
from repro.rtl.mac import MACConfig
from repro.rtl.systolic import (
    SystolicArray,
    SystolicConfig,
    array_comparison,
    build_systolic_netlist,
)


class TestSystolicConfig:
    def test_defaults(self):
        config = SystolicConfig()
        assert config.pe_count == 64
        assert config.mac.rounding == "sr_eager"

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SystolicConfig(rows=0, cols=4)


class TestBehavioralArray:
    def test_rn_array_matches_flat_gemm(self, rng):
        """Tiling must not change RN results (deterministic rounding)."""
        mac = MACConfig(6, 5, "rn", True, 0)
        array = SystolicArray(SystolicConfig(4, 4, mac))
        a = rng.normal(size=(10, 24))
        b = rng.normal(size=(24, 9))
        from repro.fp.formats import FP12_E6M5

        flat = matmul(a, b, GemmConfig.rn(FP12_E6M5))
        tiled = array.matmul(a, b)
        assert np.array_equal(flat, tiled)

    def test_sr_array_runs_and_is_reasonable(self, rng):
        array = SystolicArray(SystolicConfig(4, 4), seed=3)
        a = rng.normal(size=(8, 32))
        b = rng.normal(size=(32, 8))
        out = array.matmul(a, b)
        exact = matmul(a, b, GemmConfig.fp32_baseline())
        assert np.all(np.isfinite(out))
        assert np.abs(out - exact).mean() < 0.5

    def test_cycle_accounting(self, rng):
        array = SystolicArray(SystolicConfig(4, 4))
        a = rng.normal(size=(8, 16))
        b = rng.normal(size=(16, 8))
        array.matmul(a, b)
        # 2x2 = 4 tiles, each K + rows + cols = 24 cycles
        assert array.tiles == 4
        assert array.cycles == 4 * (16 + 4 + 4)
        assert array.macs_per_cycle == 16

    def test_cycle_accounting_partial_tiles(self, rng):
        """Edge tiles are charged their actual fill/drain dimensions,
        not the full array (regression: 10x10 @ 10x10 on an 8x8 array
        was billed 4 full tiles)."""
        array = SystolicArray(SystolicConfig(8, 8))
        a = rng.normal(size=(10, 10))
        b = rng.normal(size=(10, 10))
        array.matmul(a, b)
        assert array.tiles == 4
        # tiles: (8,8), (8,2), (2,8), (2,2) outputs over K=10
        want = (10 + 8 + 8) + (10 + 8 + 2) + (10 + 2 + 8) + (10 + 2 + 2)
        assert array.cycles == want

    def test_matches_macunit_grid_on_shared_lanes(self, rng):
        """The rewired array computes through the paper's adders: every
        output element equals a scalar MACUnit.dot seeded with that
        PE's LFSR lane — including partial edge tiles, where the lane
        grid is sliced, not re-packed."""
        from repro.fp.quantize import quantize
        from repro.rtl.mac import MACUnit

        for rounding in ("sr_eager", "rn"):
            mac_cfg = MACConfig(6, 5, rounding, False,
                                0 if rounding == "rn" else 9)
            rows = cols = 4
            array = SystolicArray(SystolicConfig(rows, cols, mac_cfg),
                                  seed=5)
            m = n = 6
            k = 10
            a = quantize(rng.normal(size=(m, k)),
                         mac_cfg.multiplier_format, "nearest")
            b = quantize(rng.normal(size=(k, n)),
                         mac_cfg.multiplier_format, "nearest")
            if rounding != "rn":
                # capture the lane phases before matmul consumes draws
                states = array.gemm_config.stream.lane_states(9)
            got = array.matmul(a, b)
            tile = 0
            for i0 in range(0, m, rows):
                for j0 in range(0, n, cols):
                    for i in range(i0, min(m, i0 + rows)):
                        for j in range(j0, min(n, j0 + cols)):
                            mac = MACUnit(mac_cfg, seed=None)
                            if mac.lfsr is not None:
                                lane = (i - i0) * cols + (j - j0)
                                mac.lfsr.state = int(states[lane])
                                # this tile starts after `tile` full
                                # K-cycle passes of the PRNG bank
                                for _ in range(tile * k):
                                    mac.lfsr.step()
                            want = mac.dot(a[i], b[:, j])
                            assert want == got[i, j], (rounding, i, j)
                    tile += 1

    def test_shape_validation(self, rng):
        array = SystolicArray(SystolicConfig(2, 2))
        with pytest.raises(ValueError):
            array.matmul(rng.normal(size=(4, 5)), rng.normal(size=(4, 5)))

    def test_software_prng_option(self, rng):
        array = SystolicArray(SystolicConfig(2, 2), hardware_prng=False)
        out = array.matmul(rng.normal(size=(4, 8)), rng.normal(size=(8, 4)))
        assert np.all(np.isfinite(out))


class TestSystolicNetlist:
    def test_area_scales_with_pe_count(self):
        small = build_systolic_netlist(SystolicConfig(2, 2))
        big = build_systolic_netlist(SystolicConfig(4, 4))
        assert big.area_ge > 3.5 * small.area_ge  # ~4x PEs + plumbing

    def test_delay_independent_of_array_size(self):
        small = build_systolic_netlist(SystolicConfig(2, 2))
        big = build_systolic_netlist(SystolicConfig(8, 8))
        assert big.delay_tau == pytest.approx(small.delay_tau)

    def test_eager_smaller_on_8x8_array(self):
        results = array_comparison(rows=8, cols=8)
        assert results["sr_eager"]["area_um2"] < results["sr_lazy"]["area_um2"]

    def test_eager_advantage_compounds(self):
        results = array_comparison(rows=4, cols=4)
        assert results["sr_eager"]["area_um2"] < results["sr_lazy"]["area_um2"]
        assert results["sr_eager"]["delay_ns"] < results["sr_lazy"]["delay_ns"]
        assert (results["sr_eager"]["area_delay_per_mac"]
                < results["sr_lazy"]["area_delay_per_mac"])
        # absolute savings grow with the array (vs a single MAC)
        single = array_comparison(rows=1, cols=1)
        array_saving = (results["sr_lazy"]["area_um2"]
                        - results["sr_eager"]["area_um2"])
        single_saving = (single["sr_lazy"]["area_um2"]
                         - single["sr_eager"]["area_um2"])
        assert array_saving > 10 * single_saving
