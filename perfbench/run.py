"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload campaign_gplus --seed 1 \\
        --seconds 24 --trace 0

Run from the root of a source checkout (it imports ``src/repro``).
The workload's units are derived from ``--seed``; the run repeats
whole cycles over them for about ``--seconds`` and checks every unit's
output: each unit must repeat its signature and counts exactly, match
the recorded reference for the seed when there is one
(``perfbench/references.json``), and keep the workload's invariants.

``--trace 0`` reports the end-to-end metrics: operations per second
over the cycle, set-up time (median of fresh processes that import and
set up, then stop) and peak resident memory.  Every timed stretch is
divided by the time of a fixed reference routine taken around it
(``reference.py``), so the figures hold still while the host's speed
drifts.  A unit that runs a simulator is paused between events about
every ``SEGMENT_SECONDS`` to take a sample, so a long unit is scaled
segment by segment; a unit's time is the mean of its scaled
repetitions.
``--trace 1`` first times a few untraced cycles, then installs the
layer ledger (``ledger.py``) and reports per-layer self time per
cycle, the deterministic layer counts, and ``trace_overhead``, the
traced over the untraced time of the same units.  Medians, quartiles
and sample counts, unscaled times, and the full ledger go to
``.bench_build/perfbench/``.

``--record-references`` re-records ``references.json`` for the
reference seeds; ``--scale tiny`` runs a reduced size (self-test).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ledger import READ_NAMES, Ledger
from reference import NOMINAL_SECONDS, ReferencePool
from workloads import WORKLOADS

__all__ = ["main"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
REFERENCES = HERE / "references.json"
#: Names the workloads and metrics (with units) a run prints.
SPEC = ROOT / "BENCHMARK.json"
#: The default seed and the held-out seed references are recorded for.
REFERENCE_SEEDS = (1, 7)
#: Fresh set-up processes per run (one more runs first, untimed).
SETUP_PROBES = 5
#: Untraced cycles at least, so that every unit has a mean of two.
MIN_CYCLES = 2
#: Length of the stretches an untraced unit is scaled by, in seconds.
SEGMENT_SECONDS = 0.25
#: Simulator events between two looks at the segment clock.
EVENTS_PER_LOOK = 256
#: Share of a traced run's time spent on the untraced baseline.
BASELINE_SHARE = 0.35
#: Largest tolerated |sum of self times - traced wall| / traced wall.
ACCOUNTING_TOLERANCE = 1e-6
#: Largest tolerated share of the traced wall charged to ``other``,
#: i.e. to no layer.  Above it, time is going to a caller the ledger
#: does not see (an entry point bound before the ledger was installed,
#: or a layer missing from ``ledger.LAYERS``).
OTHER_SHARE_LIMIT = 0.05

#: Deterministic counts, per cycle.
LAYER_COUNTS = (
    "core.anomalies.observations", "replication.reads",
    "replication.writes", "sim.events", "net.rpcs", "net.messages",
    "webapi.requests", "webapi.rate_limited", "clocksync.syncs",
    "obs.calls", "stream.ops", "stream.peak_state", "world.epochs",
    "world.bus_messages", "world.bus_deferred", "world.peak_open_state",
    "fleet.store.bytes", "serve.retries", "serve.events",
)
#: Counts aggregated over a cycle's units by ``max`` (others sum).
MAX_COUNTS = ("world.peak_open_state", "stream.peak_state")


def metric_units(table: str) -> dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads(SPEC.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[table]}


class Probe:
    """Times the call a workload wraps in it; optionally traces it.

    With a reference pool, the probe also scales its time to a host of
    nominal speed.  Its time is cut into segments: the whole call, or,
    while :func:`segmented` is in effect, stretches of about
    ``SEGMENT_SECONDS`` that end between two simulator events.  At the
    end of a segment the pool is sampled (outside the timed time), and
    the segment is divided by the mean of the samples taken right
    before and right after it.
    """

    #: The probe a segmented simulator reports to, if any.
    active: Probe | None = None

    def __init__(self, ledger: Ledger | None = None,
                 pool: ReferencePool | None = None,
                 reference: float = 0.0) -> None:
        self.ledger = ledger
        self.pool = pool
        #: The last reference sample, taken before the segment now open.
        self.reference = reference
        self.seconds = 0.0
        self.scaled = 0.0
        self.segments = 0
        self.unit_ledger = None

    def __enter__(self) -> "Probe":
        if self.ledger is not None:
            self.ledger.begin()
        Probe.active = self
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        now = time.perf_counter()
        Probe.active = None
        if self.ledger is not None:
            self.unit_ledger = self.ledger.end()
        self._close_segment(now)

    def look(self) -> None:
        """End the open segment if it is long enough."""
        now = time.perf_counter()
        if now - self._start >= SEGMENT_SECONDS:
            self._close_segment(now)
            self._start = time.perf_counter()

    def _close_segment(self, now: float) -> None:
        seconds = now - self._start
        self.seconds += seconds
        self.segments += 1
        if self.pool is not None:
            after = self.pool.sample()
            self.scaled += (seconds / ((self.reference + after) / 2.0)
                            * NOMINAL_SECONDS)
            self.reference = after


def segmented():
    """Let the active probe look at its clock between simulator events.

    Wraps ``Simulator.step`` in this process; returns the function that
    restores it.  A forked child (a hunt worker) never looks: it has no
    active probe.
    """
    from repro.sim.event_loop import Simulator

    step = Simulator.step
    events = itertools.count()

    def looking_step(sim) -> bool:
        if not next(events) % EVENTS_PER_LOOK and \
                Probe.active is not None:
            Probe.active.look()
        return step(sim)

    Simulator.step = looking_step
    return lambda: setattr(Simulator, "step", step)


os.register_at_fork(after_in_child=lambda: setattr(Probe, "active",
                                                   None))


class Checker:
    """Every unit's output check; tallies attempted and failed ops."""

    def __init__(self, references: list | None) -> None:
        self.references = references
        self.first: dict[int, tuple] = {}
        self.first_layer: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, index: int, outcome,
              layer_counts: dict | None = None) -> bool:
        problems = list(outcome.problems)
        seen = self.first.setdefault(
            index, (outcome.signature, outcome.counts))
        if (outcome.signature, outcome.counts) != seen:
            problems.append("signature or counts did not repeat")
        if layer_counts is not None and layer_counts != \
                self.first_layer.setdefault(index, layer_counts):
            problems.append("layer counts did not repeat")
        if self.references is not None:
            reference = self.references[index]
            if outcome.signature != reference["signature"]:
                problems.append("signature differs from the reference")
            if outcome.counts != reference["counts"]:
                problems.append("counts differ from the reference")
            if layer_counts is not None and \
                    layer_counts != reference["layer_counts"]:
                problems.append("layer counts differ from the reference")
        self.attempted += outcome.ops
        if problems:
            self.failed += outcome.ops
            self.problems.extend(f"unit {index}: {p}" for p in problems)
        return not problems

    def fail(self, index: int, ops: int, error: BaseException) -> None:
        self.attempted += ops
        self.failed += ops
        self.problems.append(f"unit {index}: {error!r}")


def run_cycles(workload, ctx, units, checker, pool, seconds: float,
               min_cycles: int, ledger: Ledger | None = None
               ) -> tuple[list, list]:
    """Whole cycles over ``units`` until the next would overrun.

    Returns the timeline of checked repetitions, each as ``(unit index,
    seconds, seconds at nominal speed, segments)``, and per unit the
    ``(unit ledger or None, outcome)`` of every repetition.
    """
    timeline: list[tuple[int, float, float, int]] = []
    runs: list[list] = [[] for _ in units]
    start = time.perf_counter()
    cycles = 0
    before = pool.sample()
    while True:
        cycle_start = time.perf_counter()
        for index, unit in enumerate(units):
            probe = Probe(ledger, pool, before)
            try:
                outcome = workload.run_unit(ctx, unit, probe)
            except Exception as error:  # noqa: BLE001 - a failed op
                checker.fail(index, workload.expected_ops(ctx), error)
                before = pool.sample()
                continue
            before = probe.reference
            unit_ledger = probe.unit_ledger
            runs[index].append((unit_ledger, outcome))
            if checker.check(index, outcome, unit_ledger and
                             unit_ledger.counts):
                timeline.append((index, probe.seconds, probe.scaled,
                                 probe.segments))
        cycles += 1
        now = time.perf_counter()
        if cycles >= min_cycles and \
                now - start + (now - cycle_start) > seconds:
            return timeline, runs


def unit_seconds(timeline: list, units: int) -> tuple[list, list]:
    """Per unit, the raw seconds and the seconds at nominal speed."""
    raw: list[list[float]] = [[] for _ in range(units)]
    scaled: list[list[float]] = [[] for _ in range(units)]
    for index, seconds, nominal, _ in timeline:
        raw[index].append(seconds)
        scaled[index].append(nominal)
    return raw, scaled


def cycle_seconds(per_unit: list[list[float]]) -> float:
    """One cycle's time: the sum of each unit's mean time.

    Throughput is work over total time, so a unit's mean, not its
    median, is what a cycle spends on it; drift and stalls of the host
    are taken out by the scaling, not by the estimator.  A unit with no
    checked repetition has failed the run already; the cycle is then
    reported as infinitely long.
    """
    if not all(per_unit):
        return float("inf")
    return sum(statistics.mean(samples) for samples in per_unit)


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def setup_seconds(name: str, seed: int, scale: str,
                  pool: ReferencePool) -> tuple[list[float], list[float]]:
    """Wall time from process start to set-up done, in fresh processes.

    Returns the samples, and each scaled to a host of nominal speed by
    the reference routine timed right before it.
    """
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", name, "--seed", str(seed), "--scale", scale]
    samples = []
    scaled = []
    for attempt in range(SETUP_PROBES + 1):
        reference = pool.sample()
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            _, errors = child.communicate(timeout=120)
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed:\n{errors}")
        if attempt:  # the first one fills the bytecode cache
            samples.append(elapsed)
            scaled.append(elapsed / reference * NOMINAL_SECONDS)
    return samples, scaled


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child.

    The only children finished by now are a hunt's pool workers; the
    reference helpers are still running.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(workload, ctx, units, checker, pool,
               seconds: float) -> tuple[dict, dict]:
    restore = segmented()
    try:
        timeline, _ = run_cycles(workload, ctx, units, checker, pool,
                                 seconds, MIN_CYCLES)
    finally:
        restore()
    raw, scaled = unit_seconds(timeline, len(units))
    ops = len(units) * workload.expected_ops(ctx)
    metrics = {
        "ops_per_s": ops / cycle_seconds(scaled),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "op": workload.op,
        "ops_per_cycle": ops,
        "unscaled_ops_per_s": ops / cycle_seconds(raw),
        "unit_seconds": [quartiles(samples) for samples in raw],
        "unit_scaled_seconds": [quartiles(samples) for samples in scaled],
        "timeline": timeline,
    }
    return metrics, details


def per_layer(workload, ctx, units, checker, pool, seconds: float,
              names: dict[str, str]) -> tuple[dict, dict]:
    baseline_timeline, baseline = run_cycles(
        workload, ctx, units, checker, pool, seconds * BASELINE_SHARE, 1)
    ledger = Ledger()
    ledger.install()
    try:
        traced_timeline, traced = run_cycles(
            workload, ctx, units, checker, pool,
            seconds * (1.0 - BASELINE_SHARE), 1, ledger)
    finally:
        ledger.uninstall()
    metrics: dict[str, float] = {
        name: 0 if unit in ("count", "bytes") else 0.0
        for name, unit in names.items()}
    read_s = 0.0
    worst = 0.0
    for repetitions in traced:
        if not repetitions:
            continue
        for unit_ledger, _ in repetitions:
            worst = max(worst, unit_ledger.accounting_error()
                        / unit_ledger.wall_s)
            share = 1.0 / len(repetitions)
            for layer, self_s in unit_ledger.self_s.items():
                metrics[f"{layer}.self_s"] += self_s * share
            metrics["ledger.wall_s"] += unit_ledger.wall_s * share
            read_s += unit_ledger.crossing_self_s(
                "replication", READ_NAMES) * share
        unit_ledger, outcome = repetitions[0]
        counts = {**unit_ledger.counts, **outcome.counts}
        for name in LAYER_COUNTS:
            value = counts.get(name, 0)
            if name in MAX_COUNTS:
                metrics[name] = max(metrics[name], value)
            else:
                metrics[name] += value
    if metrics["replication.reads"]:
        metrics["replication.read_us"] = (
            read_s / metrics["replication.reads"] * 1e6)
    pool_figures = [outcome.host for repetitions in baseline
                    for _, outcome in repetitions if outcome.host]
    for figure in ("pool_busy_share", "tail_idle_s"):
        if pool_figures:
            metrics[f"serve.{figure}"] = statistics.median(
                figures[figure] for figures in pool_figures)
    _, baseline_scaled = unit_seconds(baseline_timeline, len(units))
    _, traced_scaled = unit_seconds(traced_timeline, len(units))
    metrics["trace_overhead"] = (cycle_seconds(traced_scaled)
                                 / cycle_seconds(baseline_scaled))
    if worst > ACCOUNTING_TOLERANCE:
        checker.problems.append(
            f"ledger self times miss the traced wall by {worst:.2e}")
    other_share = (metrics["other.self_s"] / metrics["ledger.wall_s"]
                   if metrics["ledger.wall_s"] else 0.0)
    if other_share > OTHER_SHARE_LIMIT:
        checker.problems.append(
            f"{other_share:.1%} of the traced wall is charged to no "
            f"layer (limit {OTHER_SHARE_LIMIT:.0%})")
    details = {
        "accounting_error_share": worst,
        "other_share": other_share,
        "units": [
            [{"wall_s": unit_ledger.wall_s, "self_s": unit_ledger.self_s,
              "counts": unit_ledger.counts,
              "functions": unit_ledger.functions}
             for unit_ledger, _ in repetitions]
            for repetitions in traced],
    }
    return metrics, details


def load_references(name: str, seed: int, scale: str) -> list | None:
    if scale != "full" or not REFERENCES.is_file():
        return None
    recorded = json.loads(REFERENCES.read_text())
    return recorded.get(name, {}).get(str(seed))


def record_references(names: list[str]) -> None:
    """Re-record signatures and counts for the reference seeds."""
    recorded = (json.loads(REFERENCES.read_text())
                if REFERENCES.is_file() else {})
    plan = []
    contexts = []
    try:
        for name in names:
            workload = WORKLOADS[name]
            ctx = workload.setup(ROOT, "full")
            contexts.append((workload, ctx))
            for seed in REFERENCE_SEEDS:
                entries = recorded.setdefault(name, {})[str(seed)] = []
                for unit in workload.units(seed, "full"):
                    outcome = workload.run_unit(ctx, unit, Probe())
                    if outcome.problems:
                        raise RuntimeError(
                            f"{name} unit {unit}: {outcome.problems}")
                    entries.append({"signature": outcome.signature,
                                    "counts": outcome.counts})
                    plan.append((workload, ctx, unit, entries[-1]))
        ledger = Ledger()
        ledger.install()
        try:
            for workload, ctx, unit, entry in plan:
                probe = Probe(ledger)
                traced = workload.run_unit(ctx, unit, probe)
                if (traced.signature, traced.counts) != \
                        (entry["signature"], entry["counts"]):
                    raise RuntimeError(
                        f"unit {unit}: tracing changed the output")
                entry["layer_counts"] = probe.unit_ledger.counts
        finally:
            ledger.uninstall()
    finally:
        for workload, ctx in contexts:
            workload.teardown(ctx)
    REFERENCES.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                          + "\n")


def measure(args) -> int:
    workload = WORKLOADS[args.workload]
    names = metric_units("per_layer" if args.trace else "end_to_end")
    ctx = workload.setup(ROOT, args.scale)
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        units = workload.units(args.seed, args.scale)
        checker = Checker(load_references(args.workload, args.seed,
                                          args.scale))
        with ReferencePool() as pool:
            if args.trace:
                metrics, details = per_layer(workload, ctx, units,
                                             checker, pool, args.seconds,
                                             names)
            else:
                metrics, details = end_to_end(workload, ctx, units,
                                              checker, pool, args.seconds)
                setups, scaled = setup_seconds(args.workload, args.seed,
                                               args.scale, pool)
                metrics["setup_s"] = statistics.median(scaled)
                details["setup_seconds"] = quartiles(setups)
                details["setup_scaled_seconds"] = quartiles(scaled)
    finally:
        workload.teardown(ctx)
    details["problems"] = checker.problems
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(details, indent=1, sort_keys=True))
    for problem in checker.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not checker.problems and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"),
                        default="full")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if args.record_references:
        record_references([args.workload] if args.workload
                          else list(WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT} holds no src/repro: run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
