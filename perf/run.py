#!/usr/bin/env python3
"""Run the end-to-end benchmark.

    python3 perf/run.py [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]]
                        [--out FILE]

With ``--workload`` one workload runs in this process; without it every
workload runs, each in its own subprocess, one after another.  An untraced
run sets the workload up three times (``setup_s`` is the median), then
repeats units of work for ``--seconds`` and reports the end-to-end metrics,
each time corrected for the machine's speed while it was measured
(:class:`Speed`).
A traced run (``--trace``) sets up once, performs the workload's fixed
number of units untraced and then traced, and reports the per-layer
metrics; its counts repeat exactly for a seed.

Each metric is printed with its unit; the last line of a single-workload
run is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is non-zero if any output check failed.
``--out FILE`` adds a record of each run (with the environment it ran
in) to the JSON list in FILE, the input of ``perf/compare.py``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
#: How far beyond a measured interval the reference passes that correct it reach.
LOCAL_S = 0.1


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def environment() -> dict:
    """Where a run happened: ``git describe``, interpreter, CPU and core count."""
    try:
        describe = subprocess.run(
            ["git", "describe", "--tags", "--always", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        describe = ""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in cpuinfo
                 if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git": describe or "unknown",
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


class Speed:
    """How fast this machine runs the program right now, from a reference pass.

    A host shared with other tenants runs the same code up to ±15 % faster
    or slower, in bursts of a second or two and from one minute to the next.
    While a :class:`Speed` is entered, a timer signal runs a fixed pass of
    big-integer and buffer work every 50 ms (the library's AEAD and record
    paths do the same kind of work) and records when it ran and how long it
    took.  :meth:`clock` leaves that time out, and dividing a measured time
    by a slowdown reports it as it would read on a machine where one pass
    takes ``NOMINAL_S``.  The pass creates no objects the garbage collector
    tracks, so collection pauses stay in the program's own times.
    """

    NOMINAL_S = 1e-3
    INTERVAL_S = 0.05
    _BUFFER = bytes(range(256)) * 256

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        """Wall seconds, not counting the time spent in reference passes."""
        return time.perf_counter() - self.spent

    def sample(self) -> None:
        """Time one reference pass."""
        entered = time.perf_counter()
        size = len(self._BUFFER)
        value = int.from_bytes(self._BUFFER, "big")
        for _ in range(6):
            value = int.from_bytes((value ^ (value >> 7)).to_bytes(size, "big"), "little")
        self.times.append(entered - self.spent)
        self.samples.append(time.perf_counter() - entered)
        self.spent += self.samples[-1]

    def slowdown(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Mean pass time over nominal between two :meth:`clock` readings
        (the whole run by default): above 1 while the machine runs slow."""
        if not self.samples:
            self.sample()
        window = self.samples[bisect.bisect_left(self.times, start):
                              bisect.bisect_right(self.times, end)]
        return statistics.fmean(window or self.samples) / self.NOMINAL_S

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def measure(workload_class, seed: int, seconds: float):
    """Set up three times, then run units until ``seconds`` would be exceeded.

    Every set-up, unit and latency is divided by the slowdown of the
    reference passes that ran during it (give or take :data:`LOCAL_S`), which
    takes out bursts as well as slower minutes.  Returns the workload, its
    end-to-end metrics and details.
    """
    with Speed() as speed:
        workload = workload_class(clock=speed.clock)
        setups = []
        for _ in range(SETUPS):
            began = speed.clock()
            workload.setup(seed)
            setups.append((began, speed.clock()))
        gc.collect()
        units = []
        start = speed.clock()
        while True:
            first = len(workload.latencies_ms)
            began = speed.clock()
            workload.unit()
            ended = speed.clock()
            units.append((began, ended, first, len(workload.latencies_ms)))
            elapsed = ended - start
            if elapsed + elapsed / len(units) > seconds:
                break

    def slowdown(began: float, ended: float) -> float:
        return speed.slowdown(began - LOCAL_S, ended + LOCAL_S)

    latencies = [
        latency / slowdown(began, ended)
        for began, ended, first, last in units
        for latency in workload.latencies_ms[first:last]
    ]
    working = sum((ended - began) / slowdown(began, ended) for began, ended, _, _ in units)
    metrics = {
        "setup_s": statistics.median(
            (ended - began) / slowdown(began, ended) for began, ended in setups),
        "ops_per_s": workload.completed / working,
        "latency_ms_p50": percentile(latencies, 50) if latencies else 0.0,
    }
    details = {
        "slowdown": speed.slowdown(),
        "latency_ms_p90": percentile(latencies, 90) if latencies else 0.0,
        "latency_samples": len(latencies),
    }
    return workload, metrics, details


def measure_traced(workload_class, seed: int):
    """The fixed units untraced (time and memory), then the same units traced.

    Returns the workload, its per-layer metrics and the untraced units'
    ``(attempted, failed, problems)``.
    """
    from perf.trace import Tracer, layer_metrics

    workload = workload_class()
    workload.setup(seed)
    gc.collect()
    rss = _rss_bytes()
    start = time.perf_counter()
    for _ in range(workload.trace_units):
        workload.unit()
    untraced = time.perf_counter() - start
    growth_kib = (_rss_bytes() - rss) / 1024 / max(workload.attempted, 1)
    untraced_tally = (workload.attempted, workload.failed, list(workload.problems))

    workload.reset()
    gc.collect()
    with Tracer() as tracer:
        for _ in range(workload.trace_units):
            workload.unit()
    metrics = {**layer_metrics(tracer), **workload.layer_metrics()}
    metrics["mem.peak_rss_MiB"] = _peak_rss_mib()
    metrics["mem.rss_growth_KiB_per_op"] = growth_kib
    metrics["trace.overhead_ratio"] = tracer.wall_ns / 1e9 / untraced
    return workload, metrics, untraced_tally


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; returns its record."""
    from perf.workloads import WORKLOADS

    spec = _spec()
    attempted = failed = 0
    problems: list[str] = []
    if trace:
        workload, values, (attempted, failed, problems) = measure_traced(WORKLOADS[name], seed)
        details = workload.details()
        wanted = spec["per_layer"]
    else:
        workload, values, details = measure(WORKLOADS[name], seed, seconds)
        details.update(workload.details())
        wanted = spec["end_to_end"]
    names = {metric["name"] for metric in wanted}
    if set(values) != names:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    attempted += workload.attempted
    failed += workload.failed
    problems += workload.problems
    result = {
        "correct": failed == 0 and not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "problems": problems,
        "details": details,
        "result": result,
    }


def _print_record(record: dict) -> None:
    for problem in record["problems"]:
        print(f"# FAILED {record['workload']}: {problem}")
    for key, value in record["details"].items():
        print(f"# {record['workload']} {key}: {value}")
    for name, metric in record["result"]["metrics"].items():
        print(f"{record['workload']:15} {name:40} {metric['value']:>14.6g} {metric['unit']}")


def _append_records(path: Path, records: list[dict]) -> None:
    existing = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(existing + records, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # Import the benchmark as the ``perf`` package and the library from src/.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))

    if args.workload is None:
        status = 0
        for name in names:
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            if args.out is not None:
                command += ["--out", str(args.out.resolve())]
            status |= subprocess.run(command).returncode
        return status

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_record(record)
    if args.out is not None:
        _append_records(args.out, [{**record, "env": environment()}])
    print(json.dumps(record["result"]), flush=True)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
