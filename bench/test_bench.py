"""The benchmark's own test: each workload runs at a tiny size, emits every
metric, and repeats its counts exactly for a seed.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Printed in the readable report, beyond the metrics in the last line.
REPORTED = {
    "compare-paper": ["setup_s", "compare_s", "peak_rss_mb", "error_rate"],
    "train-large": ["setup_s", "pipeline_s", "peak_rss_mb", "error_rate", "train_samples_per_s"],
    "cli-explain": ["setup_s", "pipeline_s", "peak_rss_mb", "error_rate", "train_samples_per_s", "explain_rows_per_s"],
}
LAYER_METRICS = [
    "datakit.synth_s", "datakit.load_csv_s", "datakit.save_csv_s", "datakit.rows_read",
    "rulelang.parse_s",
    "tensornet.train_s", "tensornet.train_calls", "tensornet.epochs", "tensornet.steps",
    "tensornet.us_per_step", "tensornet.useful_epoch_ratio",
    "tensornet.predict_s", "tensornet.predict_calls", "tensornet.predict_rows",
    "kbann.compile_s", "kbann.extract_s", "kbann.permutation_s", "kbann.fidelity",
    "augment.smote_s", "augment.smote_peak_mb", "augment.autoencoder_s", "augment.rows_made",
    "explain.global_s", "explain.mispred_s", "explain.rows", "explain.ms_per_row",
    "evalharness.self_s", "evalharness.correlation_s",
    "cli.train_s", "cli.evaluate_s", "cli.explain_s", "cli.extract_s", "cli.self_s",
    "tracing overhead",
]
COUNTS = [
    "tensornet.train_calls", "tensornet.steps", "tensornet.predict_calls",
    "explain.rows", "augment.rows_made", "datakit.rows_read",
]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, done.stderr
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    done = run(workload, 0)
    metrics = result(done)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    for name in REPORTED[workload]:
        assert name in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_repeat_for_a_seed(workload):
    first, second = run(workload, 1), run(workload, 1)
    a, b = result(first)["metrics"], result(second)["metrics"]
    assert list(a) == [m["name"] for m in SPEC["per_layer"]]
    for name in COUNTS:
        assert a[name]["value"] == b[name]["value"], name
    assert a["trace.coverage"]["value"] >= 0.95
    for name in LAYER_METRICS:
        assert name in first.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
