"""SR-MAC benchmark: end-to-end and per-layer metrics with a bit gate.

Run one workload of those ``BENCHMARK.json`` lists, from the repository
root::

    python3 srbench/run.py --workload train_cnn --seed 1 --seconds 15 --trace 0

The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it are the full report: machine description, gate
digests, set-up times, and a table of every metric with its unit.

Run all four workloads, each in a fresh process, and print every
end-to-end metric by name with its unit (exit status 1 if any run
fails its bit checks)::

    python3 srbench/run.py --all --seconds 15

Metric names and units come from ``BENCHMARK.json``; ``METRICS.md``
says what each one measures.  The program is imported from ``src/`` of
the checkout this file sits in; nothing needs building.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bootstrap() -> bool:
    """Put the checkout's ``src`` and ``benchmarks`` on the path and
    check that ``repro`` comes from this checkout."""
    for path in (HERE, os.path.join(ROOT, "benchmarks"),
                 os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(1, path)
    try:
        import repro  # noqa: F401
        from _machine import machine_info  # noqa: F401
    except ImportError as error:
        print(f"srbench: cannot import the program: {error}",
              file=sys.stderr)
        return False
    source = os.path.abspath(os.path.join(ROOT, "src"))
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"srbench: repro imported from {repro.__file__}, not from "
              f"{source}", file=sys.stderr)
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="SR-MAC benchmark (one workload per process)")
    parser.add_argument("--workload", choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: makes every measured input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--expect-digest", default=None,
                        help="gate digest to require instead of the "
                             "pinned one")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh process")
    return parser


def _metric_lines(metrics: dict) -> list:
    return [f"  {name:<50} {entry['value']:>14.6g} {entry['unit']}"
            for name, entry in metrics.items()]


def run_one(args) -> int:
    import workloads
    from _machine import machine_info

    seconds = spec.benchmark()["run_seconds"] if args.seconds is None \
        else args.seconds
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="srbench-", dir=build)
    try:
        report = workloads.run(args.workload, args.seed, seconds,
                               bool(args.trace), workdir,
                               expected=args.expect_digest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["machine"] = machine_info()
    if args.trace:
        units = spec.units("per_layer")
        values = report.pop("layers")
    else:
        units = spec.units("end_to_end")
        values = report.pop("end_to_end")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    print(json.dumps(report, indent=1, sort_keys=True))
    print(f"{args.workload}: failed_frac {report['failed_frac']:.4g} "
          f"({report['failed']} of {report['attempted']} operations)")
    print("\n".join(_metric_lines(metrics)))
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a table of end-to-end metrics."""
    status = 0
    for name in spec.workload_names():
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit {done.returncode}\n{done.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        verdict = "ok" if result["correct"] else "FAILED BIT CHECK"
        print(f"{name}: {verdict} ({result['failed']} of "
              f"{result['attempted']} operations failed)")
        print("\n".join(_metric_lines(result["metrics"])))
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not _bootstrap():
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        build_parser().error("one of --workload, --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
