"""Run one hornnet benchmark workload and report its metrics.

    python3 bench/run.py --workload compare-paper --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports hornnet from ./src. Workload
names, metric names and units come from BENCHMARK.json. `--scale tiny`
shrinks the inputs for the benchmark's own test (bench/test_bench.py).

  --trace 0  measures the end-to-end metrics with tracing off: set-up is
             repeated and timed, then passes run until --seconds have gone.
  --trace 1  runs a fixed number of pass pairs, one pass untraced and one
             traced, and derives the per-layer metrics from the spans.

Each invocation is one fresh process with BLAS pinned to one thread, so
peak_rss_mb belongs to that workload alone. The lines printed before the
last one are a readable report. The last line is one JSON object with the
keys correct, attempted, failed and metrics. The full record is written to
.bench_build/hornbench/: environment, method, raw samples and, for a
traced run, the spans.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5  # set-ups per run; setup_s is their median
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "train_samples_per_s": "rows*epochs/s",
    "explain_rows_per_s": "rows/s",
}
IMPORT_CODE = "import time; t = time.perf_counter(); import hornnet; print(time.perf_counter() - t)"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ops: list[dict] = []  # one record per successful operation

    def run_pass(self, ops) -> float:
        """Run one pass; returns the seconds spent inside its operations."""
        total = 0.0
        for op in ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = op.call()
                seconds = time.perf_counter() - start
                counts = op.check(result)
            except Exception:  # an operation that raises or fails its check
                seconds = time.perf_counter() - start
                self.failed += 1
                print(f"operation {op.kind} failed:", file=sys.stderr)
                traceback.print_exc()
            else:
                self.ops.append({"kind": op.kind, "seconds": seconds, **counts})
            total += seconds
        return total

    def ratio(self, key: str, kind: str) -> float:
        """Sum of a count over the summed seconds of one kind of operation."""
        picked = [op for op in self.ops if op["kind"] == kind]
        seconds = sum(op["seconds"] for op in picked)
        return sum(op[key] for op in picked) / seconds if seconds else 0.0


def import_seconds() -> float:
    """`import hornnet` in a fresh interpreter, as a user's first call pays it."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE],
        env={**os.environ, "PYTHONPATH": path},
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout)


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def spread(samples: list[float]) -> str:
    """Median, the highest percentile with ten samples above it, and the count."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g}"
    if n > 10:
        pct = 100 * (n - 10) // n
        text += f", p{pct} {statistics.quantiles(samples, n=100)[pct - 1]:.6g}" if pct >= 1 else ""
    return text + f", max {max(samples):.6g}, n={n}"


def measure(workload, size, seed: int, seconds: float, work: Path) -> tuple[dict, dict, Tally]:
    """Untraced run: the end-to-end metrics."""
    import workloads

    imports = [import_seconds() for _ in range(SETUPS)]
    builds = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        inputs = workloads.setup(work, size, seed)
        builds.append(time.perf_counter() - start)

    tally, passes = Tally(), []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        shutil.rmtree(work / "pass", ignore_errors=True)
        passes.append(tally.run_pass(workload.ops(inputs, size, seed * 1000 + len(passes))))

    values = {
        "setup_s": statistics.median(imports) + statistics.median(builds),
        # The mean, not the median: on a shared machine the speed drifts over
        # tens of seconds, and the mean follows the share of the run spent in
        # each state where the median jumps between them.
        "pass_s": statistics.fmean(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": tally.failed / tally.attempted,
    }
    kinds = {op["kind"] for op in tally.ops}
    if "train" in kinds:
        values["train_samples_per_s"] = tally.ratio("samples", "train")
    if "explain" in kinds:
        values["explain_rows_per_s"] = tally.ratio("rows", "explain")
    samples = {"import_s": imports, "setup_build_s": builds, "pass_s": passes}
    return values, samples, tally


def measure_traced(workload, size, seed: int, seconds: float, work: Path) -> tuple[dict, dict, Tally, list]:
    """Traced run: one traced set-up, then pass pairs, untraced and traced,
    alternating which goes first. The pair count depends only on --seconds,
    so the counts repeat exactly for a seed."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        inputs = workloads.setup(work, size, seed)
    finally:
        tracer.uninstall()
    traced_wall = time.perf_counter() - start

    tally, plain, traced = Tally(), [], []
    for i in range(max(1, int(seconds // (2 * workload.nominal_pass_s)))):
        for with_trace in (i % 2 == 1, i % 2 == 0):
            shutil.rmtree(work / "pass", ignore_errors=True)
            ops = workload.ops(inputs, size, seed * 1000 + i)
            if with_trace:
                tracer.install()
                try:
                    traced.append(tally.run_pass(ops))
                finally:
                    tracer.uninstall()
            else:
                plain.append(tally.run_pass(ops))
    traced_wall += sum(traced)
    tracer.measure_smote_memory()

    values = tracing.layer_metrics(tracer.spans, tracer.validation_split)
    self_s = tracing.self_times(tracer.spans)
    values["trace.overhead_s"] = (sum(traced) - sum(plain)) / len(traced)
    values["trace.coverage"] = sum(self_s.values()) / traced_wall
    samples = {
        "traced_pass_s": traced,
        "untraced_pass_s": plain,
        "traced_wall_s": traced_wall,
        "layer_self_s": self_s,
    }
    return values, samples, tally, tracer.dump()


def report_lines(workload_name: str, values: dict, samples: dict, tally: Tally, trace: int) -> list[str]:
    if trace:
        wall = samples["traced_wall_s"]
        lines = [f"traced wall {wall:.4f} s; layer self times:"]
        lines += [f"  {layer:<12} {s:10.4f} s  {100 * s / wall:5.1f}%" for layer, s in samples["layer_self_s"].items()]
        lines.append(f"  sum covers {100 * values['trace.coverage']:.1f}% of traced wall time")
        lines.append(
            f"tracing overhead {values['trace.overhead_s']:.4f} s per pass "
            f"(traced {statistics.fmean(samples['traced_pass_s']):.4f} s, "
            f"untraced {statistics.fmean(samples['untraced_pass_s']):.4f} s, mean)"
        )
        lines += [f"{name:<30} {value:.6g}" for name, value in values.items() if not name.startswith("trace.")]
        return lines
    # pass_s is one comparison on compare-paper and one CLI pipeline pass on
    # the CLI workloads; the throughputs exist where their commands run.
    name = {"compare-paper": "compare_s"}.get(workload_name, "pipeline_s")
    units = dict(UNITS, error_rate=f"({tally.failed} of {tally.attempted} operations failed)")
    lines = [f"{key:<20} {value:.6g} {units[key]}" for key, value in values.items()]
    lines.insert(2, f"{'':<20} {name} = pass_s, the mean per pass; passes: {spread(samples['pass_s'])}")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "hornnet" / "__init__.py").is_file():
        print(f"bench: error: no hornnet sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, as the measurement method requires, set before numpy
    # loads; the import-timing interpreters inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC):
        print(f"bench: error: hornnet was imported from outside {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    size = workload.sizes[args.scale]
    out = ROOT / ".bench_build" / "hornbench"
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    work = out / stem
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            values, samples, tally, spans = measure_traced(workload, size, args.seed, args.seconds, work)
            (out / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
        else:
            values, samples, tally = measure(workload, size, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "method": (
            f"one process per run, BLAS pinned to one thread; setup_s is the median of {SETUPS} "
            "fresh-interpreter imports plus the median of as many input builds; pass_s is the "
            "mean over the passes run in --seconds; a traced run alternates untraced and traced passes"
        ),
        "values": values,
        "samples": samples,
        "operations": tally.ops,
        "result": result,
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} ({args.scale}), seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(record["environment"]))
    for line in report_lines(args.workload, values, samples, tally, args.trace):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
