"""Command-line entry point regenerating the paper's tables and figure.

Usage::

    python -m repro.experiments.runner table1 table2 table5 fig5
    python -m repro.experiments.runner table3 --scale small
    python -m repro.experiments.runner table4 --scale small
    python -m repro.experiments.runner table3 --scale tiny --accum-order pairwise
    python -m repro.experiments.runner transformer --scale tiny
    python -m repro.experiments.runner transformer --scale small --workers 4
    python -m repro.experiments.runner validation
    python -m repro.experiments.runner all --scale tiny

``--accum-order`` re-runs the training tables under a different GEMM
accumulation engine (``sequential``, ``pairwise``, ``chunked``,
``chunked(<c>)``, or the hardware-exact ``rtl_rn`` / ``rtl_lazy`` /
``rtl_eager`` vectorized-RTL datapath — see :mod:`repro.emu.engine`),
turning Tables III/IV into per-datapath ablations.  The ``rtl_*``
family runs every accumulation through the bit-true adder models; on
RN rows it degrades to the RN adder, so one flag covers a whole table.

``--workers N`` shards every emulated GEMM across ``N`` threads via
the deterministic tiled executor (:mod:`repro.emu.parallel`); its
key-derived substream draw order makes results bit-identical for any
``N`` at the same seed, for the training tables and the ``transformer``
attention sweep (:mod:`repro.experiments.transformer`) alike.

``--workers auto`` resolves to ``os.cpu_count()``.  The ``rtl_*``
engines and a run without the compiled kernel hold the GIL and run
slower on several threads than on one (DESIGN.md section 4), so run
them at ``--workers 1``.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import hardware, training, transformer, validation


def _print(text: str) -> None:
    print(text, flush=True)


def run_experiment(name: str, scale: str,
                   accum_order: str = "sequential",
                   workers: int = 1) -> None:
    # progress display only: the elapsed time is printed, never fed
    # into any experiment result
    start = time.time()  # reprolint: disable=DET-CLOCK
    if name == "table1":
        _print("== Table I: ASIC cost of the 24 adder configurations ==")
        _print(hardware.format_table1(hardware.run_table1()))
        savings = hardware.headline_savings()
        _print("\nheadline savings (eager E6M5 SR w/o sub):")
        for ref, vals in savings.items():
            pretty = ", ".join(f"{k} {100 * v:.1f}%" for k, v in vals.items())
            _print(f"  {ref}: {pretty}")
    elif name == "table2":
        _print("== Table II: FPGA implementation results ==")
        _print(hardware.format_table2(hardware.run_table2()))
    elif name == "table3":
        _print(f"== Table III: ResNet/CIFAR-like accuracy (scale={scale}, "
               f"accum={accum_order}, workers={workers}) ==")
        rows = training.run_table3(scale, log=_print,
                                   accum_order=accum_order,
                                   workers=workers)
        _print(training.format_accuracy_rows(rows))
    elif name == "table4":
        _print(f"== Table IV: VGG + ResNet50 workloads (scale={scale}, "
               f"accum={accum_order}, workers={workers}) ==")
        results = training.run_table4(scale, log=_print,
                                      accum_order=accum_order,
                                      workers=workers)
        for workload, rows in results.items():
            _print(training.format_accuracy_rows(rows, title=f"-- {workload} --"))
    elif name == "table5":
        _print("== Table V: hardware overhead vs number of random bits ==")
        _print(hardware.format_table5(hardware.run_table5()))
    elif name == "fig5":
        _print("== Fig. 5: MAC-level cost curves ==")
        _print(hardware.format_fig5(hardware.run_fig5()))
    elif name == "transformer":
        _print(f"== Transformer: accuracy vs r on the attention workload "
               f"(scale={scale}, accum={accum_order}, workers={workers}) ==")
        rows = transformer.run_transformer(scale, log=_print,
                                           accum_order=accum_order,
                                           workers=workers)
        _print(transformer.format_transformer_rows(rows))
    elif name == "validation":
        _print("== Sec. III-B: brute-force eager SR validation ==")
        report = validation.validate_eager_sr(pair_stride=4)
        _print(report.summary())
    else:
        raise SystemExit(f"unknown experiment {name!r}")
    _print(f"[{name} done in "
           f"{time.time() - start:.1f}s]\n")  # reprolint: disable=DET-CLOCK


ALL = ["table1", "table2", "table5", "fig5", "validation", "table3", "table4",
       "transformer"]


def main(argv=None) -> int:
    from ..emu.engine import get_engine
    from ..emu.parallel import resolve_workers

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="+",
                        help="table1 table2 table3 table4 table5 fig5 "
                             "transformer validation, or 'all'")
    parser.add_argument("--scale", default="small",
                        choices=sorted(training.SCALES),
                        help="training scale preset for tables III/IV and "
                             "the transformer sweep")
    parser.add_argument("--accum-order", default="sequential",
                        help="GEMM accumulation engine for tables III/IV: "
                             "sequential, pairwise, chunked, chunked(<c>), "
                             "or the bit-true RTL datapath rtl_rn / "
                             "rtl_lazy / rtl_eager")
    parser.add_argument("--workers", default="1",
                        help="worker threads for the tiled GEMM "
                             "executor; results do not depend on it; "
                             "'auto' = os.cpu_count(); the rtl_* "
                             "engines and a run without the compiled "
                             "kernel run slower above 1 (~1.4x on 2)")
    parser.add_argument("--trace", default=None, metavar="TRACE.json",
                        help="record a span trace of the run and write "
                             "Chrome trace_event JSON to this path "
                             "(inspect with chrome://tracing or "
                             "'python -m repro.obs summarize')")
    args = parser.parse_args(argv)
    get_engine(args.accum_order)  # fail fast on unknown engine names
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        raise SystemExit(f"--workers: {exc}")
    names = ALL if "all" in args.experiments else args.experiments

    def run_all() -> None:
        for name in names:
            run_experiment(name, args.scale, args.accum_order, workers)

    if args.trace:
        from ..obs import tracing

        with tracing() as recorder:
            run_all()
        count = recorder.export_chrome(args.trace)
        _print(f"[trace: {count} spans -> {args.trace}]")
    else:
        run_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
