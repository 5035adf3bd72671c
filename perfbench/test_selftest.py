"""Self-test of the benchmark: every workload, tiny size, same code path.

    python3 -m pytest perfbench -q

Each workload runs through ``perfbench/run.py`` exactly as a full run
does, only with ``--scale tiny``.  The result line must carry every
metric ``BENCHMARK.json`` names, with its unit: the end-to-end ones
untraced, the per-layer ones traced.  A traced run must also report
work in every layer its workload runs (``LAYERS.md``), so that a layer
the ledger lost, or a wrapper that never fires, fails the test.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

CAMPAIGN_LAYERS = (
    "core.anomalies.self_s", "core.windows.self_s", "replication.self_s",
    "sim.self_s", "net.self_s", "webapi.self_s", "services.self_s",
    "methodology.self_s", "obs.self_s", "core.anomalies.observations",
    "replication.reads", "replication.writes", "replication.read_us",
    "sim.events", "net.rpcs", "net.messages", "webapi.requests",
    "clocksync.syncs", "obs.calls",
)
#: Workload -> the per-layer metrics that must be above 0 when traced.
ACTIVE_LAYERS = {
    "campaign_gplus": CAMPAIGN_LAYERS,
    "campaign_fbfeed": CAMPAIGN_LAYERS,
    "world_gossip": (
        "sim.self_s", "stream.self_s", "world.bus.self_s",
        "world.model.self_s", "world.buffers.self_s",
        "world.engine.self_s", "fleet.digest.self_s", "sim.events",
        "stream.ops", "stream.peak_state", "world.epochs",
        "world.bus_messages", "world.peak_open_state",
    ),
    "hunt_mix": (
        "fleet.digest.self_s", "fleet.store.self_s", "serve.store.self_s",
        "serve.pool.self_s", "serve.api.self_s", "io.self_s",
        "fleet.store.bytes", "serve.events", "stream.peak_state",
        "serve.pool_busy_share", "serve.tail_idle_s",
    ),
}


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(workload: str, trace: int) -> dict:
    done = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def assert_metrics(result: dict, table: list[dict]) -> None:
    expected = {metric["name"]: metric["unit"] for metric in table}
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert emitted == expected
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, name
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_line(workload, trace=0)
    assert_metrics(result, SPEC["end_to_end"])
    for name in ("ops_per_s", "setup_s", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = result_line(workload, trace=1)
    assert_metrics(result, SPEC["per_layer"])
    metrics = {name: metric["value"]
               for name, metric in result["metrics"].items()}
    assert metrics["trace_overhead"] > 0
    assert metrics["ledger.wall_s"] > 0
    # The run itself fails unless self times plus other add up to the
    # traced wall; recheck the sum as printed.
    self_total = sum(value for name, value in metrics.items()
                     if name.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["ledger.wall_s"],
                                       rel=1e-6)
    idle = [name for name in ACTIVE_LAYERS[workload]
            if not metrics[name] > 0]
    assert not idle, f"{workload} reports no work in {idle}"


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
               "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
