"""fuzzycr benchmark: end-to-end decision metrics and traced per-layer costs.

Run one workload (the last stdout line is the JSON result)::

    python3 bench/run.py --workload decide --seed 1 --seconds 30 --trace 0

or all three, each in its own process, with a summary table::

    python3 bench/run.py --all --seconds 30

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures the same loop untraced and then traced, and reports
per-layer counts and self times per unit of work plus the tracing overhead.
See bench/BASELINE.md for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array

from workloads import (
    BENCH_DIR,
    BLAS_THREADS,
    DEFAULT_SEED,
    ROOT,
    WORKLOADS,
    BenchError,
    pin_threads,
)

SETUP_PROBES = 7
MIN_UNITS = 2  # measured units per phase, after one warm-up unit
PROBE_TIMEOUT_S = 60
HASH_SEED = "0"
# Every timing is reported at a reference machine speed: scaled by
# REFERENCE_S over the time of a fixed computation measured right next to
# it. On a shared 2-core Xeon host (Python 3.11.7, numpy 2.4.6) the machine
# speed drifted by up to 30% over minutes, which moved whole runs; the
# scaling removes most of that. REFERENCE_S is the computation's median time
# on that host, so there scaled and raw values agree on average. Raw values
# are printed alongside.
REFERENCE_S = 0.0125


def reference_seconds() -> float:
    """Time of a fixed computation that calls no fuzzycr code: pure-Python
    dict and float work plus small numpy array operations, the program's
    own mix."""
    import gc
    import math

    import numpy

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[int, float] = {}
        acc = 0.0
        for i in range(20000):
            key = i & 63
            table[key] = table.get(key, 0.0) + math.exp(-0.001 * (i & 1023))
            acc = min(acc, table[key]) if i & 1 else max(acc, table[key])
        xs = numpy.linspace(0.0, 100.0, 1001)
        curve = numpy.zeros_like(xs)
        for j in range(200):
            numpy.maximum(curve, numpy.minimum(0.005 * j, xs), out=curve)
            acc += float(numpy.dot(xs, curve))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "blas_threads": f"pinned to {BLAS_THREADS}",
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (a checkout
    that is not a repository must not report an enclosing one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def measure_setup(name: str) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh process to the end of its set-up, at
    the reference speed and raw."""
    samples, raw = [], []
    ref_before = reference_seconds()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise BenchError(f"set-up probe for {name} did not exit") from None
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe for {name} failed (exit {proc.returncode})")
        ref_after = reference_seconds()
        samples.append(elapsed * 2 * REFERENCE_S / (ref_before + ref_after))
        raw.append(elapsed)
        ref_before = ref_after
    return samples, raw


class Phase:
    """A warm-up unit, then measured units until ``seconds`` have passed.

    Each measured unit's times are scaled to the reference speed with the
    reference computation measured before and after it. Latencies are kept
    as float32 so the harness's own memory stays a small part of
    ``peak_rss_mb`` however many operations a run makes.
    """

    def __init__(self, workload, seconds: float, tracer=None) -> None:
        self.unit_times: list[float] = []  # per measured unit, scaled
        self.raw_unit_times: list[float] = []
        self.latencies = array("f")  # per operation, scaled
        self.layer_units: list[tuple[dict, dict]] = []
        self.attempted = self.failed = 0
        deadline = ref_before = None
        while deadline is None or len(self.unit_times) < MIN_UNITS or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.reset()
            latencies, failed = workload.run_unit()
            self.attempted += len(latencies)
            self.failed += failed
            ref_after = reference_seconds()
            if deadline is None:
                deadline = time.perf_counter() + seconds
                ref_before = ref_after
                continue
            scale = 2 * REFERENCE_S / (ref_before + ref_after)
            ref_before = ref_after
            self.unit_times.append(sum(latencies) * scale)
            self.raw_unit_times.append(sum(latencies))
            self.latencies.extend(t * scale for t in latencies)
            if tracer is not None:
                counts, self_s = tracer.snapshot()
                counts["cli.bytes_written"] = getattr(workload, "bytes_written", 0)
                self.layer_units.append(
                    (counts, {layer: t * scale for layer, t in self_s.items()}))

    def unit_seconds(self) -> float:
        return statistics.median(self.unit_times)

    def decisions_per_s(self, per_unit: int, raw: bool = False) -> float:
        times = self.raw_unit_times if raw else self.unit_times
        return statistics.median(per_unit / t for t in times)

    def latency_us(self, q: float) -> tuple[float, str]:
        """q-th percentile latency in microseconds and its sample count."""
        import numpy

        samples = numpy.frombuffer(self.latencies, dtype=numpy.float32)
        value = float(numpy.percentile(samples, q)) * 1e6
        beyond = int(numpy.count_nonzero(samples * 1e6 > value))
        valid = "" if beyond >= 10 else ", NOT valid: fewer than 10 samples beyond"
        return value, f"n={samples.size}, {beyond} beyond{valid}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    workload = WORKLOADS[name]()
    workload.prepare()
    setup, raw_setup = ([], []) if trace else measure_setup(name)
    workload.generate(seed)
    env = environment(seed)
    lines = [f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}",
             "env " + json.dumps(env, sort_keys=True)]
    metrics: dict[str, dict] = {}

    def report(metric: str, value: float, unit: str, note: str = "") -> None:
        metrics[metric] = {"value": value, "unit": unit}
        lines.append(f"  {metric:36s} {value:14.6g} {unit:6s} {note}")

    per_unit = workload.decisions_per_unit
    problems: list[str] = []
    if not trace:
        phase = Phase(workload, seconds)
        report("setup_s", statistics.median(setup), "s",
               f"median of {len(setup)} fresh processes; raw {statistics.median(raw_setup):.6g} s")
        report("decisions_per_s", phase.decisions_per_s(per_unit), "1/s",
               f"median of {len(phase.unit_times)} units of {per_unit} decisions; "
               f"raw {phase.decisions_per_s(per_unit, raw=True):.6g} /s")
        for metric, q in (("latency_p50_us", 50), ("latency_p99_us", 99)):
            value, note = phase.latency_us(q)
            report(metric, value, "us", f"per {workload.operation}, {note}")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report("peak_rss_mb", rss_mb, "MB", "whole benchmark process")
        attempted, failed = phase.attempted, phase.failed
    else:
        import tracing

        untraced = Phase(workload, seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = Phase(workload, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        counts = [c for c, _ in traced.layer_units]
        if any(c != counts[0] for c in counts):
            problems.append(f"per-layer counts differ between traced units: {counts}")
        self_s = {layer: statistics.median(s.get(layer, 0.0) for _, s in traced.layer_units)
                  for layer, *_ in tracing.HOOKS}
        values = tracing.layer_values(counts[0], self_s, tracer.absent)
        for metric, unit, layer in tracing.LAYER_METRICS:
            if metric not in values:
                lines.append(f"  {metric:36s} {'absent':>14s}        hook {layer} not found")
                continue
            calls = counts[0].get(f"{layer}.calls", 0)
            report(metric, values[metric], unit,
                   "per unit" + ("" if calls else ", not on this workload's path"))
        report("cli.bytes_written", counts[0]["cli.bytes_written"], "bytes", "per unit")
        overhead = traced.unit_seconds() / untraced.unit_seconds() - 1.0
        report("trace.overhead_frac", overhead, "ratio",
               f"untraced {per_unit / untraced.unit_seconds():.6g} vs traced "
               f"{per_unit / traced.unit_seconds():.6g} decisions/s")
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
    problems += workload.final_problems()
    lines.append(f"  {'failed_frac':36s} {failed / attempted:14.6g} {'':6s} "
                 f"{failed} of {attempted} operations")
    lines += [f"  problem: {p}" for p in problems[:20]]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        output = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(output[:-1]), flush=True)
        if proc.returncode != 0 and not output:
            return proc.returncode or 1
        results[name] = json.loads(output[-1])
    metric_names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"\n{'metric':36s}" + "".join(f"{n:>18s}" for n in results))
    for metric in metric_names:
        cells = []
        for r in results.values():
            m = r["metrics"].get(metric)
            cells.append(f"  {m['value']:>10.5g} {m['unit']:5s}" if m else f"{'absent':>18s}")
        print(f"{metric:36s}" + "".join(cells))
    print(f"{'failed_frac':36s}" + "".join(
        f"  {r['failed'] / r['attempted']:>10.5g} {'':5s}" for r in results.values()))
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    pin_threads()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing decides dict and set layout, which moved a tables
        # pass by up to 20% between processes; pin it so runs differ only
        # in the measured code and the machine. Same process, new image.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
