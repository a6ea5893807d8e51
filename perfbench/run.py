"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {ask_cold,read_skewed,mixed_rw} \\
        --seed N --seconds S --trace {0,1}

The program is imported from the checkout's ``src``; ``REPRO_*``
environment knobs are dropped, so the program runs with its defaults.
The report lines name every metric with its unit and sample count; the
last line is the JSON result.  With ``--trace 0`` its metrics are the
end-to-end ones of ``BENCHMARK.json``, with ``--trace 1`` the
per-layer ones (the report also prints the layer times that some
workload never reaches; see ``workloads.REPORT_ONLY``).  A run that finds a wrong answer reports it (``correct``
false, the op counted in ``failed``); a run whose pinned inputs changed,
or that cannot import the program, exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The end-to-end metrics of the JSON result (``BENCHMARK.json``).
END_TO_END = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p99_ms",
              "rss_mb")


def bootstrap() -> bool:
    """Point imports at this checkout and drop ``REPRO_*`` knobs."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return False
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported the program from {repro.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return False
    return True


def filesystem(path: Path) -> str:
    """Type of the filesystem holding *path*, from ``/proc/mounts``."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1]
                if (str(path).startswith(mount.rstrip("/") + "/")
                        or str(path) == mount) and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return f"{kind} (mounted at {best or '?'})"


def environment(workload) -> list[str]:
    from repro.plan import parallel
    from perfbench import program
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "no numpy"
    lines = [f"env nproc {os.cpu_count()}",
             f"env python {platform.python_version()}",
             f"env numpy {numpy_version}",
             f"env parallel.workers() {parallel.workers()}"]
    if workload.storage:
        lines.append(f"env fsync {program.FSYNC}")
        lines.append(f"env data_dir {workload.run_dir} on "
                     f"{filesystem(workload.run_dir.resolve())}")
    else:
        lines.append("env fsync none (no storage)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ask_cold", "read_skewed", "mixed_rw"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap():
        return 2

    from perfbench.workloads import REPORT_ONLY, WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    problems = workload.pin_problems()
    if problems:
        for problem in problems:
            print(f"perfbench: pinned inputs changed: {problem}",
                  file=sys.stderr)
        return 3
    # The benchmark's own inputs live for the whole run: keep them out
    # of the collector's way, so its passes cost what the program's
    # objects alone would cost.
    gc.freeze()
    phases = workload.run(args.seconds, bool(args.trace))

    out = [f"perfbench {workload.name} seed={args.seed} "
           f"seconds={args.seconds:g} trace={args.trace}"]
    out.extend(environment(workload))
    for number, phase in enumerate(phases):
        out.append(f"env calibration_ms phase {number} "
                   f"{phase.calibration_ms:.2f}")
        out.append(f"env steal_ms phase {number} {phase.steal_ms:.0f} "
                   f"(hypervisor steal during the timed loop)")
    out.append(f"inputs rows_sha256 {workload.rows_digest}")
    out.append(f"inputs ops_sha256 {workload.inputs['ops_digest']} "
               f"(seed {args.seed}; default seed pinned and checked)")

    metrics = {}
    if not args.trace:
        phase = phases[0]
        for name, (value, unit, samples) in workload.end_to_end(
                phase).items():
            shown = "none" if value is None else f"{value:.6g}"
            out.append(f"metric {name} {shown} {unit} ({samples})")
            if name in END_TO_END:
                metrics[name] = {"value": value, "unit": unit}
    else:
        plain, traced = phases
        window = workload.window(traced)
        for name, (value, unit) in workload.per_layer(
                plain, traced, window).items():
            out.append(f"layer {name} {value:.6g} {unit} "
                       f"(n={traced.ops} ops)")
            if name not in REPORT_ONLY:
                metrics[name] = {"value": value, "unit": unit}
        out.extend(workload.worker_threads(traced, window))
        for target, count in sorted(workload.wrappers_fired(traced).items()):
            out.append(f"fired {target} {count}")
    for number, phase in enumerate(phases):
        if any(loop.exhausted for loop in phase.loops):
            out.append(f"note phase {number}: the op stream ran out "
                       f"before the time was up")
        for error in sorted(set(phase.errors()))[:10]:
            out.append(f"error phase {number}: {error}")
        if phase.status:
            shown = {key: phase.status[key] for key in (
                "parallel_workers", "stats", "admission", "locks",
                "degraded_rules")}
            out.append(f"server status phase {number}: "
                       f"{json.dumps(shown, sort_keys=True)}")
        out.extend(phase.notes)
        out.extend(phase.problems)

    attempted = sum(phase.ops for phase in phases)
    failed = sum(len(phase.failed) for phase in phases)
    correct = failed == 0 and not any(phase.problems for phase in phases)
    print("\n".join(out))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
