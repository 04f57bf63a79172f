"""Run one benchmark workload against the bohrad sources of this checkout.

    python3 benchmarks/run.py --workload radius_table --seed 1 --seconds 30 --trace 0

Each invocation is one process running one workload as a closed loop: a
single caller runs whole rounds of ops back to back, with no other threads,
until --seconds of op time have passed.  After each round, with the clock
stopped, every op's output is checked against oracles computed apart from
bohrad (benchmarks/oracles.py); the ops of round 0 are also run again and
must reproduce their output bit for bit.  The last line of stdout is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (ops_per_s, op_p50_ms,
peak_rss_mb, setup_s).  Their times are wall-clock times scaled by the
machine's speed at that moment, which a fixed probe loop measures every
quarter second between ops (see SpeedProbe).  With --trace 1 the run instead
executes round 0 once with every public bohrad function wrapped in a span and
once without, and reports the per-layer metrics of the traced pass; counts
repeat exactly for a given seed.  Both modes also write a results file under
benchmarks/out/.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# set-up is timed this many times before the timed phase and again after it,
# so that its median spans the whole run
SETUP_BEFORE, SETUP_AFTER = 6, 5


def _probe_work() -> float:
    """A fixed pure-Python load: float arithmetic, calls and a small dict."""
    total = 0.0
    for n in range(1, 3000):
        total += math.pow(n, -1.5) * 0.999**n
    table = {i: (i, float(i)) for i in range(400)}
    return total + len(table)


class SpeedProbe:
    """Tracks the machine's speed with a fixed loop, to scale measured times.

    On a shared machine the same op can take twice as long a minute later,
    because other tenants load the host; the slow phases outlast a run, so
    no statistic inside one run removes them.  The probe times _probe_work
    (best of two) at least every EVERY_S seconds between ops.  A duration
    measured at time t is scaled by REF_S / (median of the five probe times
    nearest t): it reads as the time it would take where the probe takes
    REF_S, the probe's median time on the machine of the reference figures
    in benchmarks/README.md.  The probe runs between ops, never inside one.
    """

    EVERY_S = 0.25
    REF_S = 0.8e-3

    def __init__(self):
        self.at = []  # when each probe ended
        self.seconds = []  # the probe's time then
        self._last = -math.inf

    def sample(self) -> None:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - t0)
        self._last = time.perf_counter()
        self.at.append(self._last)
        self.seconds.append(best)

    def due(self) -> None:
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        i = bisect.bisect_left(self.at, t)
        return self.REF_S / statistics.median(self.seconds[max(0, i - 3) : i + 2])


def _import_bohrad():
    """A fresh import of bohrad and its CLI module (dependencies stay loaded)."""
    for name in [m for m in sys.modules if m == "bohrad" or m.startswith("bohrad.")]:
        del sys.modules[name]
    package = importlib.import_module("bohrad")
    importlib.import_module("bohrad.cli")
    return package


def setup(build, seed: int, repeats: int, probe: SpeedProbe):
    """Import bohrad and build round 0, repeats times.

    Returns the last package and ops, and each repeat's time scaled by the probe.
    """
    times = []
    for _ in range(repeats):
        probe.sample()
        t0 = time.perf_counter()
        package = _import_bohrad()
        ops = build(package, seed, 0)
        times.append((time.perf_counter() - t0) * probe.scale(t0))
    if Path(package.__file__).resolve().parent != SRC / "bohrad":
        raise SystemExit(f"error: bohrad was imported from {package.__file__}, not from {SRC}")
    return package, ops, times


def _fingerprint(value):
    """A comparable form of an output in which floats compare bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(_fingerprint(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return tuple(_fingerprint(getattr(value, f)) for f in value.__dataclass_fields__)
    return value


def _run_ops(ops, runner, probe: SpeedProbe | None = None):
    """Run ops in order; returns (op, output or None, error or None, start, seconds) records."""
    records = []
    for op in ops:
        if probe is not None:
            probe.due()
        t0 = time.perf_counter()
        try:
            output, error = runner(op), None
        except Exception as exc:  # an op that raises is counted failed, and the run goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        records.append((op, output, error, t0, time.perf_counter() - t0))
    return records


class Tally:
    """Checks of every op run so far: failures with reasons, latencies, accuracy columns."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.wrong = 0
        self.raw_s = 0.0  # wall time of all attempted ops
        self.scaled_s = 0.0  # the same, scaled by the speed probe
        self.ok = 0
        self.by_position = {}  # index in the round -> [(raw, scaled) of each ok run]
        self.class_ms = {}
        self.accuracy = {}

    def add(self, records, probe: SpeedProbe | None = None) -> None:
        """Check one round's records, given in the round's order."""
        for position, (op, output, error, start, seconds) in enumerate(records):
            scaled = seconds * probe.scale(start) if probe is not None else seconds
            self.attempted += 1
            self.raw_s += seconds
            self.scaled_s += scaled
            self.class_ms.setdefault(op.cls, []).append(scaled * 1e3)
            try:
                if error is not None:
                    raise workloads.NoResult(error)
                columns = op.check(output)
            except workloads.NoResult as exc:
                self.failures[f"{op.cls}: {exc}"] += 1
                continue
            except oracles.CheckFailed as exc:
                self.failures[f"{op.cls}: wrong result: {exc}"] += 1
                self.wrong += 1
                continue
            self.ok += 1
            self.by_position.setdefault(position, []).append((seconds, scaled))
            for name, value in columns.items():
                column = self.accuracy.setdefault(f"max_{name}", {})
                column[op.cls] = max(value, column.get(op.cls, 0.0))

    def p50_ms(self, column: int) -> float:
        """The median over a round's ops of each op's median latency across rounds.

        Taking each op's median over the rounds first keeps the noise on single
        ops from moving which op sits in the middle.
        """
        per_op = [statistics.median(s[column] for s in v) for v in self.by_position.values()]
        return statistics.median(per_op) * 1e3 if per_op else 0.0

    def details(self) -> dict:
        return {
            "ops_per_class": {cls: len(v) for cls, v in self.class_ms.items()},
            "median_ms_per_class": {cls: statistics.median(v) for cls, v in self.class_ms.items()},
            "failures": dict(self.failures),
            "accuracy": self.accuracy,
        }


def rerun_check(records) -> Counter:
    """Run the marked ops of a round again; outputs must match bit for bit."""
    differ = Counter()
    for op, output, error, _, _ in records:
        if not op.rerun:
            continue
        again = _run_ops([op], lambda op: op.run())[0]
        if _fingerprint((again[1], again[2])) != _fingerprint((output, error)):
            differ[f"{op.cls}: rerun differs: {op.label}"] += 1
    return differ


def timed_run(package, build, seed: int, seconds: float, first_ops, setup_times, probe) -> tuple[dict, dict]:
    """Whole rounds until `seconds` of op time have passed.

    Each round is checked as soon as it ends, with the clock stopped, and its
    outputs are then dropped: memory does not grow with the number of ops.
    """
    tally = Tally()
    ops, rounds = first_ops, 0
    while True:
        records = _run_ops(ops, lambda op: op.run(), probe)
        probe.sample()
        tally.add(records, probe)
        if rounds == 0:
            differ = rerun_check(records)
        rounds += 1
        if tally.raw_s >= seconds:
            break
        ops = build(package, seed, rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times = setup_times + setup(build, seed, SETUP_AFTER, probe)[2]

    metrics = {
        "ops_per_s": {"value": tally.ok / tally.scaled_s, "unit": "1/s"},
        "op_p50_ms": {"value": tally.p50_ms(1), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }
    details = {
        "rounds": rounds,
        "op_wall_s": tally.raw_s,
        "unscaled": {"ops_per_s": tally.ok / tally.raw_s, "op_p50_ms": tally.p50_ms(0)},
        "probe": {"count": len(probe.seconds), "median_ms": statistics.median(probe.seconds) * 1e3, "ref_ms": probe.REF_S * 1e3},
        **tally.details(),
        "rerun_differences": dict(differ),
    }
    summary = {
        "correct": tally.wrong == 0 and not differ,
        "attempted": tally.attempted,
        "failed": sum(tally.failures.values()),
        "metrics": metrics,
    }
    return summary, details


def traced_run(package, build, seed: int) -> tuple[dict, dict]:
    tracer = tracing.Tracer(package)
    tracer.install()
    try:
        ops = build(package, seed, 0, tracer.user)
        t0 = time.perf_counter()
        records = _run_ops(ops, lambda op: tracer.run_op(len(tracer.ops), op))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    plain = build(package, seed, 0)
    t0 = time.perf_counter()
    plain_records = _run_ops(plain, lambda op: op.run())
    untraced_s = time.perf_counter() - t0

    tally = Tally()
    tally.add(records)
    differ = Counter(
        f"{op.cls}: traced and untraced outputs differ: {op.label}"
        for (op, out, err, _, _), (_, out2, err2, _, _) in zip(records, plain_records)
        if _fingerprint((out, err)) != _fingerprint((out2, err2))
    )
    custom_iterations = sum(out.iterations for op, out, err, _, _ in records if op.cls == "custom_tail" and err is None)
    values = tracing.layer_metrics(tracer, custom_iterations)
    units = {name: spec["unit"] for name, spec in _benchmark_spec("per_layer").items()}
    metrics = {name: {"value": value, "unit": units.get(name, "")} for name, value in values.items()}
    details = {
        "traced_wall_s": traced_s,
        "untraced_wall_s": untraced_s,
        "tracing_overhead_s": traced_s - untraced_s,
        **tally.details(),
        "rerun_differences": dict(differ),
        "trace": tracer.report(),
    }
    summary = {
        "correct": tally.wrong == 0 and not differ,
        "attempted": tally.attempted,
        "failed": sum(tally.failures.values()),
        "metrics": metrics,
    }
    return summary, details


def _benchmark_spec(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bohrad" / "__init__.py").is_file():
        print(f"error: no bohrad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (bohrad's dependency, loaded once before set-up is timed)

    build = workloads.WORKLOADS[args.workload]
    probe = SpeedProbe()
    package, first_ops, setup_times = setup(build, args.seed, SETUP_BEFORE, probe)
    if args.trace:
        summary, details = traced_run(package, build, args.seed)
    else:
        summary, details = timed_run(package, build, args.seed, args.seconds, first_ops, setup_times, probe)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, **summary, **details}, indent=1) + "\n")
    for name, m in summary["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {summary['attempted']}, failed = {summary['failed']}, results in {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
