"""Experiment harness tests (hardware instant, training at tiny scale)."""

import numpy as np
import pytest

from repro.experiments import records
from repro.experiments.hardware import (
    format_fig5,
    format_table1,
    format_table2,
    format_table5,
    headline_savings,
    run_fig5,
    run_table1,
    run_table2,
    run_table5,
)
from repro.experiments.validation import (
    monte_carlo_validation,
    validate_eager_sr,
)


class TestRecords:
    def test_table1_complete(self):
        assert len(records.TABLE1) == 24
        assert records.TABLE1_ANCHOR in records.TABLE1

    def test_table3_rows(self):
        assert len(records.TABLE3) == 10
        baseline = records.TABLE3[0]
        assert baseline[1] == "baseline" and baseline[-1] == 91.47

    def test_table5_r_values(self):
        assert sorted(records.TABLE5_SR_EAGER) == [4, 7, 9, 11, 13]


class TestRowConfigs:
    """Every Table III/IV row trains on the datapath the paper names."""

    @staticmethod
    def _labels(rows, **kwargs):
        from repro.experiments.training import row_gemm_config

        configs = [row_gemm_config(kind, rbits, subnormals, **kwargs)
                   for _, kind, subnormals, _, _, rbits, _ in rows]
        return [None if c is None else c.label for c in configs]

    def test_table3_labels(self):
        assert self._labels(records.TABLE3, seed=1) == [
            None, "RN FP16", "RN BF16", "RN E6M5", "SR E6M5 r=4",
            "SR E6M5 r=9", "SR E6M5 r=11", "SR E6M5 r=13",
            "SR E6M5-fz r=11 w/o sub", "SR E6M5-fz r=13 w/o sub"]

    def test_table4_labels(self):
        for workload, rows in records.TABLE4.items():
            assert self._labels(rows, seed=1) == [
                None, "RN FP16", "SR E6M5-fz r=13 w/o sub"], workload

    def test_seed_and_accum_order_reach_the_config(self):
        from repro.experiments.training import row_gemm_config

        sr = row_gemm_config("sr", 13, False, seed=7,
                             accum_order="pairwise")
        assert sr.to_spec()["stream"] == {"kind": "software", "seed": 7}
        assert sr.accum_order == "pairwise"
        rn = row_gemm_config("rn_bf16", None, True, seed=7,
                             accum_order="chunked(4)")
        assert rn.accum_order == "chunked(4)"


class TestTable1:
    def test_rows_and_paper_refs(self):
        rows = run_table1()
        assert len(rows) == 24
        assert all(r.paper is not None for r in rows)

    def test_anchor_matches_exactly(self):
        rows = run_table1()
        anchor = next(r for r in rows if r.key == records.TABLE1_ANCHOR)
        assert anchor.area_um2 == pytest.approx(anchor.paper.area_um2)

    def test_formatting(self):
        text = format_table1(run_table1())
        assert "SR eager" in text and "E8M23" not in text.split("\n")[0][:10]

    def test_every_row_within_25_percent_of_paper(self):
        for row in run_table1():
            paper = records.TABLE1[row.key]
            assert abs(row.area_um2 / paper.area_um2 - 1) < 0.25, row.key
            assert abs(row.delay_ns / paper.delay_ns - 1) < 0.25, row.key

    def test_eager_below_lazy_on_every_pair(self):
        """Paper Sec. III-C2: eager beats lazy on area and delay."""
        by_key = {r.key: r for r in run_table1()}
        for key, row in by_key.items():
            rounding, sub, e, m, r = key
            if rounding == "sr_lazy":
                eager = by_key[("sr_eager", sub, e, m, r)]
                assert eager.area_um2 < row.area_um2, key
                assert eager.delay_ns < row.delay_ns, key

    def test_mac_level_rows_larger(self):
        adder_rows = {r.key: r for r in run_table1()}
        mac_rows = {r.key: r for r in run_table1(mac_level=True)}
        for key in adder_rows:
            assert mac_rows[key].area_um2 > adder_rows[key].area_um2


class TestTable2:
    def test_eager_fewer_luts_than_lazy(self):
        rows = {(r.config.rounding): r for r in run_table2()}
        assert rows["sr_eager"].luts < rows["sr_lazy"].luts

    def test_eager_delay_below_lazy(self):
        rows = {(r.config.rounding): r for r in run_table2()}
        assert rows["sr_eager"].delay_ns < rows["sr_lazy"].delay_ns

    def test_every_row_within_25_percent_of_paper(self):
        for row in run_table2():
            assert abs(row.luts / row.paper.luts - 1) < 0.25
            assert abs(row.delay_ns / row.paper.delay_ns - 1) < 0.25

    def test_formatting(self):
        assert "LUT" in format_table2(run_table2())


class TestTable5:
    def test_area_increases_with_r(self):
        rows = [r for r in run_table5() if r.label.startswith("SR")]
        areas = [r.area_um2 for r in rows]
        assert areas == sorted(areas)

    def test_energy_increases_with_r(self):
        rows = [r for r in run_table5() if r.label.startswith("SR")]
        energies = [r.energy for r in rows]
        assert energies == sorted(energies)

    def test_delay_nearly_flat_in_r(self):
        rows = [r for r in run_table5() if r.label.startswith("SR")]
        delays = [r.delay_ns for r in rows]
        assert max(delays) - min(delays) < 0.15 * min(delays)

    def test_all_sr_rows_beat_fp16_reference(self):
        rows = run_table5()
        fp16 = next(r for r in rows if "E5M10" in r.label)
        for row in rows:
            if row.label.startswith("SR"):
                assert row.area_um2 < fp16.area_um2
                assert row.delay_ns < fp16.delay_ns

    def test_formatting(self):
        assert "Delay" in format_table5(run_table5())


class TestFig5:
    def test_series_complete(self):
        series = run_fig5()
        assert set(series) == {"area_um2", "delay_ns", "energy_nw_mhz"}
        for groups in series.values():
            assert len(groups) == 6  # 3 roundings x sub on/off
            for values in groups.values():
                assert len(values) == 4  # four formats

    def test_eager_below_lazy_in_every_series(self):
        series = run_fig5()
        for metric, groups in series.items():
            for sub in ("Sub ON", "Sub OFF"):
                lazy = groups[f"SR lazy, {sub}"]
                eager = groups[f"SR eager, {sub}"]
                assert all(e < l for e, l in zip(eager, lazy)), metric

    def test_every_series_falls_toward_narrow_formats(self):
        """Monotone decreasing across E8M23 -> E5M10 -> E8M7 -> E6M5."""
        for metric, groups in run_fig5().items():
            for label, values in groups.items():
                assert values == sorted(values, reverse=True), (metric, label)

    def test_rn_at_most_eager_in_every_series(self):
        for metric, groups in run_fig5().items():
            for sub in ("Sub ON", "Sub OFF"):
                rn = groups[f"RN, {sub}"]
                eager = groups[f"SR eager, {sub}"]
                assert all(n <= e for n, e in zip(rn, eager)), metric

    def test_formatting(self):
        assert "E6M5" in format_fig5(run_fig5())


class TestHeadlineSavings:
    def test_matches_paper_claims_loosely(self):
        savings = headline_savings()
        claimed = records.CLAIMED_SAVINGS
        # ~50% vs FP32 on every metric (paper: "by about 50%")
        for metric in ("delay", "area", "energy"):
            assert savings["vs_fp32"][metric] > 0.38
        # positive savings vs FP16 RN
        assert savings["vs_fp16"]["delay"] > 0.15
        assert savings["vs_fp16"]["area"] > 0.08
        # eager vs lazy peak savings in the claimed ballpark
        assert savings["eager_vs_lazy_max"]["delay"] > 0.12
        assert savings["eager_vs_lazy_max"]["area"] > 0.10
        assert claimed["eager_vs_lazy_max"]["delay"] == 0.266


class TestValidationExperiment:
    def test_small_validation_passes(self):
        report = validate_eager_sr(pair_stride=16, rbits=5)
        assert report.passed, report.summary()
        assert report.pairs_tested > 100
        assert len(report.traces_covered) >= 4

    def test_summary_text(self):
        report = validate_eager_sr(pair_stride=24, rbits=4)
        assert "PASS" in report.summary()

    def test_stride8_r6_validation_passes(self):
        report = validate_eager_sr(pair_stride=8, rbits=6)
        assert report.passed, report.summary()
        assert report.pairs_tested >= 500

    def test_monte_carlo_paper_procedure(self):
        """The paper's setup (input pairs x random draws) at reduced count."""
        report = monte_carlo_validation(n_pairs=300, n_draws=200, rbits=9)
        assert report.probability_mismatches == 0
        assert report.max_probability_error < 0.20  # 5-sigma at 200 draws


class TestTrainingTinyScale:
    def test_train_once_runs(self):
        from repro.data import make_cifar10_like
        from repro.emu import GemmConfig
        from repro.experiments.training import SCALES, train_once

        scale = SCALES["tiny"]
        ds = make_cifar10_like(120, 60, scale.image_size, seed=0)
        baseline = train_once(ds, scale, None, seed=1)
        assert 0.0 <= baseline <= 100.0
        quantized = train_once(ds, scale, GemmConfig.sr(11, seed=1), seed=1)
        assert 0.0 <= quantized <= 100.0

    def test_table4_rows(self):
        from repro.experiments.training import run_table4

        results = run_table4("tiny", seed=1)
        assert set(results) == {"vgg16_cifar10", "resnet50_imagewoof"}
        for workload, rows in results.items():
            labels = [r.label for r in rows]
            assert labels == ["FP32 Baseline", "RN W/ Sub", "SR W/O Sub"]
            baseline, _, sr13 = (r.accuracy for r in rows)
            # SR E6M5 r=13 stays in the neighborhood of the FP32 baseline
            # (Table IV: within ~0.6% at paper scale; generous at tiny
            # scale).
            assert sr13 > baseline - 30.0, workload
            assert all(0.0 <= r.accuracy <= 100.0 for r in rows)

    def test_scales_defined(self):
        from repro.experiments.training import SCALES

        assert {"tiny", "small", "medium"} <= set(SCALES)
