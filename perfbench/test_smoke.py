"""Smoke test of the benchmark: every workload at toy sizes, untraced and
traced, in a fresh process each, as the benchmark's command runs them.

    python -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counts that are legitimately zero on a healthy run
MAY_BE_ZERO = {"world.action_clamps", "cli.replay_manifest.mismatches"}


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, \
        proc.stderr
    return result


def assert_metrics(metrics, spec):
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    proc = run_bench(workload, 0)
    result = result_of(proc)
    assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    lines = proc.stdout.splitlines()
    for tag in ("environment ", "figures ", "loss_sha256 "):
        assert any(line.startswith(tag) for line in lines), tag


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(workload):
    result = result_of(run_bench(workload, 1))
    assert_metrics(result["metrics"], SPEC["per_layer"])


def test_trace_covers_every_layer():
    """The CLI pipeline reaches every traced layer, so each must show work."""
    sys.path.insert(0, str(HERE))
    from layertrace import layer_metric_units

    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layer_metric_units()
    proc = run_bench("cli-pipeline", 1)
    metrics = result_of(proc)["metrics"]
    idle = [name for name, m in metrics.items() if name not in MAY_BE_ZERO and m["value"] <= 0]
    assert idle == []
    assert not any(line.startswith("unmeasured ") for line in proc.stdout.splitlines())


def test_fails_without_sources(tmp_path):
    """Given only the benchmark's own files, the command exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
