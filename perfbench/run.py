"""freeknot benchmark: seeded CLI workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; freeknot is imported from its src/.
One operation is one in-process call of freeknot.cli.main(argv) with
stdin fed from a StringIO and stdout captured.  The load is a closed
loop from one thread: the next operation starts when the previous one
has returned and its output has been checked.  A run executes whole
rounds of its workload until --seconds have passed.

Every time is wall time scaled by a calibration kernel measured around
it (see calibrate()), which cancels the host's speed drift; the
unscaled figures go to the record.

--trace 0 reports the end-to-end metrics; --trace 1 replays the first
rounds untraced and then traced, and reports the per-layer metrics
from the spans.  --negative-control feeds every checker a corrupted
answer, so failed_fraction must come out above 0.  The last line of
stdout is one JSON object; a fuller record, with the environment,
goes to .perfbench_out/ in the checkout.
"""

import argparse
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from itertools import combinations
from pathlib import Path
from time import perf_counter

import checks
import workloads
from spans import Tracer

SETUP_REPEATS = 5
TRACE_MAX_ROUNDS = 2
# Times are scaled to a host on which one calibration kernel run takes
# this long (see calibrate()).
KERNEL_REF_S = 0.0003
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def _import_cli():
    """Import freeknot afresh from the checkout's src/."""
    for key in [k for k in sys.modules
                if k == "freeknot" or k.startswith("freeknot.")]:
        del sys.modules[key]
    cli = importlib.import_module("freeknot.cli")
    if Path(cli.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"freeknot imported from {cli.__file__}")
    return cli


_POINTS = [((i * 37) % 101, (i * 53) % 103) for i in range(50)]


def _kernel() -> int:
    """Pairwise tests over tuples, the shape of freeknot's hot loops."""
    crossed = set()
    for a, b in combinations(_POINTS, 2):
        if (a[0] - b[0]) * (a[1] - b[1]) < 0:
            crossed.add((a, b))
    return len(crossed)


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel, best of three.

    A shared host drifts between speed states for seconds at a time
    (the same operation took 37 to 62 ms over 40 s on a 2-vCPU VM), and
    the kernel drifts with it.  Scaling each time by KERNEL_REF_S over
    the kernel times measured around it cancels most of the drift.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


def setup(workload: str, seed: int):
    """Import plus input generation, repeated; returns the last result
    and the median scaled time."""
    build, count = workloads.WORKLOADS[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = perf_counter()
        cli = _import_cli()
        rounds = build(random.Random(seed), count)
        wall = perf_counter() - t0
        times.append(wall * 2 * KERNEL_REF_S / (before + calibrate()))
    return cli, rounds, statistics.median(times)


def call(cli, op):
    """One operation: exit code, stdout, seconds, error text."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(op.stdin), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc, error = None, traceback.format_exc(limit=3)
    finally:
        elapsed = perf_counter() - t0
        out = sys.stdout.getvalue()
        sys.stdin, sys.stdout = saved
    return rc, out, elapsed, error


class Run:
    """Latencies and failures of one pass over whole rounds.

    kernel[i] is the calibration taken just before operation i; one
    more is taken when the pass ends.
    """

    def __init__(self, negative: bool = False):
        self.negative = negative
        self.wall: list[float] = []
        self.kernel: list[float] = []
        self.failures: list[str] = []
        self.rounds = 0

    def round(self, cli, ops, tracer=None) -> None:
        for op in ops:
            if tracer is not None:
                tracer.current_op = len(self.wall)
            self.kernel.append(calibrate())
            rc, out, elapsed, error = call(cli, op)
            self.wall.append(elapsed)
            if error is not None:
                self.failures.append(f"{op.argv[0]}: raised {error}")
                continue
            if self.negative:
                out = checks.corrupted(op, out)
            try:
                checks.check(op, rc, out)
            except checks.CheckFailed as exc:
                self.failures.append(f"{op.argv[0]}: {exc}")
        self.rounds += 1

    def finish(self) -> "Run":
        self.kernel.append(calibrate())
        return self

    @property
    def latencies(self) -> list[float]:
        """Scaled seconds per operation, each scaled by the median of the
        three calibrations before it and the three after it."""
        k = self.kernel
        return [w * KERNEL_REF_S / statistics.median(k[max(0, i - 2):i + 4])
                for i, w in enumerate(self.wall)]

    @property
    def ops_per_s(self) -> float:
        return len(self.wall) / sum(self.latencies)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond); the maximum when there are too
    few samples for that."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100 * (n - 10) / n, 10


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": _git_commit(), "seed": seed}


def _git_commit() -> str:
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
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(cli, rounds, seconds: float, negative: bool) -> Run:
    run = Run(negative)
    start = perf_counter()
    while run.rounds == 0 or perf_counter() - start < seconds:
        run.round(cli, rounds[run.rounds % len(rounds)])
    return run.finish()


def measure_traced(cli, rounds, seconds: float, negative: bool):
    """Whole rounds untraced for up to half the budget, then the same
    rounds traced; the gap in ops_per_s is the tracing overhead."""
    plain = Run(negative)
    start = perf_counter()
    while plain.rounds == 0 or (plain.rounds < TRACE_MAX_ROUNDS and
                                perf_counter() - start < seconds / 2):
        plain.round(cli, rounds[plain.rounds % len(rounds)])
    plain.finish()
    tracer = Tracer()
    traced = Run(negative)
    tracer.install()
    try:
        for i in range(plain.rounds):
            traced.round(cli, rounds[i % len(rounds)], tracer)
    finally:
        tracer.uninstall()
    return plain, traced.finish(), tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="corrupt every answer before checking it")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "freeknot" / "cli.py").is_file():
        print(f"error: no freeknot sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cli, rounds, setup_s = setup(args.workload, args.seed)

    record = {"workload": args.workload, "trace": args.trace,
              "negative_control": args.negative_control,
              "environment": environment(args.seed)}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        plain, run, tracer = measure_traced(
            cli, rounds, args.seconds, args.negative_control)
        layers = tracer.per_layer()
        layers["trace.overhead"] = (
            100 * (plain.ops_per_s / run.ops_per_s - 1), "%")
        tracer.write(OUT / f"{stem}-spans.tsv.gz")
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in sorted(layers.items())}
        for name, m in metrics.items():
            print(f"{name:45s} {m['value']:12.4f} {m['unit']}")
    else:
        run = measure(cli, rounds, args.seconds, args.negative_control)
        lat = run.latencies
        tail_s, tail_pct, beyond = tail(lat)
        metrics = {
            "ops_per_s": {"value": run.ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(lat),
                               "unit": "ms"},
            "latency_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        record["samples"] = {
            "operations": len(lat), "rounds": run.rounds,
            "latency_p50_ms": len(lat),
            "latency_tail_ms": {"percentile": tail_pct,
                                "samples_beyond": beyond,
                                "samples": len(lat)},
            "setup_s": SETUP_REPEATS}
        record["unscaled"] = {
            "ops_per_s": len(run.wall) / sum(run.wall),
            "latency_p50_ms": 1000 * statistics.median(run.wall),
            "kernel_median_ms": 1000 * statistics.median(run.kernel)}
        print(f"environment: {json.dumps(record['environment'])}")
        unscaled = ", ".join(f"{k} {v:.4g}"
                             for k, v in record["unscaled"].items())
        print(f"{len(lat)} operations in {run.rounds} rounds; "
              f"unscaled: {unscaled}")
        for name, m in metrics.items():
            note = ""
            if name == "latency_p50_ms":
                note = f"  (n={len(lat)})"
            elif name == "latency_tail_ms":
                note = (f"  (p{tail_pct:.1f}, {beyond} samples beyond, "
                        f"n={len(lat)})")
            elif name == "setup_s":
                note = f"  (median of {SETUP_REPEATS})"
            print(f"{name:16s} {m['value']:12.4f} {m['unit']}{note}")
    final = Run(args.negative_control)
    final.round(cli, workloads.FINAL.get(args.workload, []))
    record["final_ops_wall_s"] = final.wall
    passes = [run, final] + ([plain] if args.trace else [])
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.wall) for p in passes)
    failed = len(failures)
    print(f"{'failed_fraction':16s} {failed / attempted:12.4f}"
          f"  ({failed}/{attempted})")
    for reason in failures[:5]:
        print(f"  failure: {reason}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record.update(result, failures=failures[:50])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
