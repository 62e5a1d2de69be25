"""transient-lab benchmark: one seeded workload per run, timings next to accuracy.

    python3 perfbench/run.py --workload clean3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

It measures the library in `src/` beside its own directory.  `--trace 0`
measures the end-to-end metrics with tracing off; `--trace 1` wraps every
layer boundary (see tracing.py) and reports the per-layer metrics.
`--workload all` runs every workload both ways.  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
The exit code is 1 when a correctness check fails and 2 when there is no
library to measure.

Every workload is a closed loop with one client: this process takes one
signal at a time through all of the workload's steps, and the time those
steps take is that signal's latency.  That time is the CPU time of the one
thread that runs them, which is the wall time on an idle host but leaves out
the time a shared host's scheduler gives to other tenants.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
MIN_SIGNALS = 100        # so that ten signals lie beyond the 90th percentile
SETUP_PROBES = 7
THROUGHPUT_BLOCKS = 10
# Timings are reported at the host speed where the reference task takes
# REFERENCE_NOMINAL_S, about its median on the 2-CPU host of the README.
REFERENCE_NOMINAL_S = 0.75e-3
REFERENCE_EVERY_S = 0.2


def pin_environment():
    """One CPU and one BLAS thread on a shared host; the default quadrature
    node count.  Child processes inherit all three."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # this variable silently changes every OET and quadrature number
    os.environ.pop("TRANSIENT_LAB_QUAD_NODES", None)


def environment_report():
    import numpy as np
    from transient_lab import QuadratureConfig

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "quadrature_nodes": QuadratureConfig().nodes}


def reference_task():
    """Fixed work that calls no library code: numpy on whole arrays and a
    Python loop of float arithmetic, in about equal parts.  When the host
    slows, this mix slows by about as much as every workload does (see the
    README); dictionaries, strings and short numpy slices slow by more."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 4000)
    acc = 0.0
    for k in range(40):
        acc += float(np.dot(x, np.exp(-1e-3 * k * x)))
    for k in range(2000):
        acc += math.exp(-1e-3 * k) * math.sqrt(k + 1.0)
    return acc


class HostSpeed:
    """Reference-task CPU times taken between signals, to put timings on one speed.

    For identical code, this shared 2-CPU host switches within seconds
    between speeds up to 60% apart, as other tenants load the same cores; a
    fixed task that calls no library code switches with it.
    `scale(start, end)` turns a time measured from perf_counter time
    `start` to `end` into the time at the speed where the task takes
    REFERENCE_NOMINAL_S, from the two samples that bracket it.  Of the two
    it takes the slower: a signal timed across a switch is then scaled as if
    the whole of it ran slow, which can move it down the distribution but
    never into the tail.
    """

    def __init__(self):
        self.at = []
        self.took = []
        self._due = 0.0

    def sample(self):
        reference_task()   # refills the caches the last signal displaced
        runs = []
        for _ in range(3):
            start = time.thread_time()
            reference_task()
            runs.append(time.thread_time() - start)
        self.at.append(time.perf_counter())
        self.took.append(statistics.median(runs))
        self._due = self.at[-1] + REFERENCE_EVERY_S

    def maybe_sample(self):
        if time.perf_counter() >= self._due:
            self.sample()

    def scale(self, start, end):
        before = max(bisect.bisect_right(self.at, start) - 1, 0)
        after = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        return REFERENCE_NOMINAL_S / max(self.took[before], self.took[after])


def setup_seconds(workload, seed, host):
    """Median over fresh interpreters of the import plus the workload's set-up.

    A first, discarded probe keeps bytecode compilation out of the figure.
    Returns the median at reference speed and the median as measured.
    """
    raw, spans = [], []
    for _ in range(SETUP_PROBES + 1):
        host.sample()
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            out = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), workload, str(seed), workdir],
                capture_output=True, text=True, check=True, timeout=60)
        raw.append(float(out.stdout.split()[-1]))
        spans.append((start, time.perf_counter()))
    host.sample()
    scaled = [t * host.scale(*span) for t, span in zip(raw, spans)]
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


class Tally:
    """Attempts, failures and scores over the outcomes of a set of signals."""

    def __init__(self):
        self.attempted = self.failed = self.scored = self.solved = 0
        self.count_rel_errs = []
        self.accuracy = {}

    def add(self, outcomes):
        for o in outcomes:
            self.attempted += 1
            self.failed += o.error is not None
            if o.solved is not None:
                self.scored += 1
                self.solved += bool(o.solved)
            if o.count_err is not None:
                self.count_rel_errs.append(o.count_err / o.true_count)
            for key, value in o.accuracy.items():
                self.accuracy[key] = max(self.accuracy.get(key, 0.0), value)


class Pass:
    """One pass over signals 0, 1, 2, ... of a workload."""

    def __init__(self):
        self.latencies = []   # thread CPU seconds
        self.walls = []       # wall seconds
        self.starts = []
        self.tally = Tally()
        self.digest = hashlib.sha256()   # over the first trace_signals signals

    @property
    def busy_s(self):
        return sum(self.latencies)


def run_pass(wl, minimum, until=None, host=None):
    """Run at least `minimum` signals, and go on until perf_counter passes `until`."""
    rec = Pass()
    i = 0
    while i < minimum or (until is not None and time.perf_counter() < until):
        if host is not None:
            host.maybe_sample()
        signal = wl.make(i)
        start, cpu_start = time.perf_counter(), time.thread_time()
        raw = wl.run(signal)
        rec.latencies.append(time.thread_time() - cpu_start)
        rec.walls.append(time.perf_counter() - start)
        rec.starts.append(start)
        outcomes = wl.score(signal, raw)
        rec.tally.add(outcomes)
        if i < wl.trace_signals:
            for o in outcomes:
                rec.digest.update(f"{o.method}|{o.error}|{len(o.returned)}|".encode())
                rec.digest.update(struct.pack(f"<{len(o.returned)}d", *o.returned))
        i += 1
    return rec


def check_digest(workload, seed, hexdigest):
    """Compare with the digest an earlier run of the same library source at
    this seed recorded, then store it."""
    path = WORK / "digests.json"
    source = hashlib.sha256()
    for module in sorted((ROOT / "src" / "transient_lab").glob("*.py")):
        source.update(module.read_bytes())
    key = f"{workload}:{seed}:{source.hexdigest()[:16]}"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    if known.get(key, hexdigest) != hexdigest:
        return [f"results differ from an earlier run at seed {seed}"]
    known[key] = hexdigest
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)
    return []


def block_throughput(latencies):
    """Median over THROUGHPUT_BLOCKS equal blocks of consecutive signals of
    signals per second spent in the steps: a host stall slows one block."""
    size = len(latencies) // THROUGHPUT_BLOCKS
    return statistics.median(size / sum(latencies[k * size:(k + 1) * size])
                             for k in range(THROUGHPUT_BLOCKS))


def measure_end_to_end(wl, seconds, host, setup_s):
    """Untraced: at least MIN_SIGNALS signals and at least `seconds` of wall time.

    Timings are at reference speed (see HostSpeed); `info` keeps them as
    measured, and the wall-time percentiles beside them.
    """
    wl.run(wl.make(0))   # warm-up, so that lazy caches are filled before timing
    rec = run_pass(wl, max(MIN_SIGNALS, wl.trace_signals),
                   until=time.perf_counter() + seconds, host=host)
    host.sample()
    latencies = [t * host.scale(start, start + wall)
                 for start, wall, t in zip(rec.starts, rec.walls, rec.latencies)]
    ms = sorted(1e3 * t for t in latencies)
    tally = rec.tally
    metrics = {
        "setup_s": (setup_s[0], "s"),
        "signals_per_s": (block_throughput(latencies), "1/s"),
        "signal_ms_p50": (statistics.median(ms), "ms"),
        "signal_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "solved_frac": (tally.solved / tally.scored, "ratio"),
        "term_count_ratio": (1.0 + statistics.fmean(tally.count_rel_errs), "ratio"),
        "completed_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_ms = sorted(1e3 * t for t in rec.latencies)
    info = {"signals": len(ms), "busy_s": rec.busy_s, "raw_setup_s": setup_s[1],
            "raw_signals_per_s": block_throughput(rec.latencies),
            "raw_signal_ms_p50": statistics.median(raw_ms),
            "raw_signal_ms_p90": statistics.quantiles(raw_ms, n=10)[8],
            "wall_signal_ms_p50": 1e3 * statistics.median(rec.walls),
            "wall_signal_ms_p90": 1e3 * statistics.quantiles(rec.walls, n=10)[8],
            "reference_ms": 1e3 * statistics.median(host.took)}
    return metrics, rec, info


def measure_layers(wl, seconds):
    """Untraced and traced passes over the same signals, alternating until `seconds`.

    Counts come from the first traced pass and must repeat exactly in every
    later one; self times are medians over the traced passes.
    """
    from workloads import ACCURACY_METRICS

    wl.run(wl.make(0))
    n = wl.trace_signals
    until = time.perf_counter() + seconds
    plain, traced = [], []
    pair_s = 0.0
    while not traced or time.perf_counter() + pair_s < until:
        start = time.perf_counter()
        plain.append(run_pass(wl, n))
        tracer = tracing.Tracer()
        with tracer.installed():
            traced.append((run_pass(wl, n), tracer))
        pair_s = time.perf_counter() - start

    problems = []
    if len({r.digest.hexdigest() for r in plain + [r for r, _ in traced]}) != 1:
        problems.append("results differ between traced, untraced and repeated passes")
    counts = [tracer.call_counts() for _, tracer in traced]
    if any(c != counts[0] for c in counts):
        problems.append("layer counts differ between repeated traced passes")
    first, tracer = traced[0]
    problems += tracing.claim_violations(wl.name, tracer.layers)

    metrics = {}
    for name, layer in tracer.layers.items():
        metrics[f"{name}.calls"] = (layer.calls, "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(t.layers[name].self_s for _, t in traced), "s")
        metrics[f"{name}.fail"] = (layer.fail, "count")
        if name in tracing.BYTES_LAYERS:
            metrics[f"{name}.bytes"] = (layer.bytes, "bytes")
    for name, value in tracer.counts.items():
        metrics[name] = (value, "count")
    returned = tracer.counts["decomposer.terms_returned"]
    fits = tracer.layers["tail_limits.estimate_rate"].calls
    metrics["decomposer.rate_fits_per_term"] = (fits / returned if returned else 0.0, "ratio")
    for name, unit in ACCURACY_METRICS.items():
        metrics[name] = (first.tally.accuracy.get(name, 0.0), unit)
    overhead = (statistics.median(r.busy_s for r, _ in traced)
                - statistics.median(r.busy_s for r in plain))
    metrics["bench.trace_overhead_s"] = (overhead, "s")
    return metrics, first, problems, {"signals": n, "passes": len(traced)}


def run_all(args):
    """Every workload untraced and then traced, each in its own process."""
    worst = 0
    for workload in tracing.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", workload, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(trace)],
                                  timeout=600)
            worst = max(worst, done.returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tracing.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not ((ROOT / "src" / "transient_lab" / "__init__.py").is_file()
            and (ROOT / "data" / "two_term.json").is_file()):
        print(f"error: no transient-lab checkout around {HERE} "
              "(src/transient_lab and data/two_term.json not found)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    pin_environment()
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads   # only now: numpy reads OPENBLAS_NUM_THREADS when imported

    print("environment:", json.dumps(environment_report(), sort_keys=True))
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        if args.trace:
            wl = workloads.WORKLOAD_TYPES[args.workload](args.seed, workdir)
            metrics, rec, problems, info = measure_layers(wl, args.seconds)
        else:
            host = HostSpeed()
            setup_s = setup_seconds(args.workload, args.seed, host)
            wl = workloads.WORKLOAD_TYPES[args.workload](args.seed, workdir)
            metrics, rec, info = measure_end_to_end(wl, args.seconds, host, setup_s)
            problems = []
    except workloads.CheckFailed as exc:
        print(f"error: {args.workload}: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += check_digest(args.workload, args.seed, rec.digest.hexdigest())

    info.update(attempted=rec.tally.attempted, failed=rec.tally.failed,
                digest=rec.digest.hexdigest()[:16])
    print(f"{args.workload} (trace {args.trace}):", json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for problem in problems:
        print(f"error: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": rec.tally.attempted,
        "failed": rec.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
