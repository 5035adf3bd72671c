"""Work-stealing shard scheduling across concurrent hunts.

A campaign service has many hunts in flight at once, with skewed shard
counts — one hunt with dozens of shards next to several one-shard
hunts — and a naive per-hunt dispatch (drain hunt A, then hunt B, ...)
leaves most of the pool idle every time a small hunt reaches the
barrier.  This module schedules *across* hunts:

* every hunt keeps its own pending deque (FIFO in spec merge order);
* each worker slot has a hunt *affinity* — it keeps drawing from the
  hunt it last served, so a hunt's shards cluster on warm workers;
* a worker whose hunt runs dry **steals** from the hunt with the most
  shards remaining, keeping every core busy until the global queue is
  empty.

``policy="sequential"`` disables stealing and dispatch interleaving —
hunts run strictly one after another — and exists as the benchmark
baseline (``BENCH_serve.json`` compares the two on a skewed mix).

The shards run on the worker pool of :mod:`repro.fleet.pool`, the one
fleets run on, under its one failure policy: a worker crash or timeout
is retried within a bounded budget, a campaign exception fails at
once.  Failing halts only that hunt — the pool keeps serving the
others — and a hunt already paused, cancelled or failed drops the
failures of its in-flight shards.

A hunt executed here is byte-identical to the same spec under
``run_fleet`` — the parity gate (``tools/serve_parity_check.py``)
holds the scheduler to that.  This is the serving shell: it runs on
the host, outside any simulation, and may read the wall clock
(``repro.lint`` scope waiver for ``repro.serve``) because its timing
decides only when a shard executes, never what it computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.fleet.digest import fleet_signature
from repro.fleet.pool import PoolHooks, ShardRun, ShardRunner, drain, resume
from repro.methodology.runner import CampaignResult
from repro.obs.events import (
    HuntShardCompleted,
    HuntShardRetried,
    HuntTestChecked,
    ObsEvent,
)

__all__ = ["HuntRun", "HuntOutcome", "run_hunts", "SCHEDULER_POLICIES"]

SCHEDULER_POLICIES = ("stealing", "sequential")

#: Control verdict for one hunt, polled between dispatches.
ControlFn = Callable[[str], str]

EventFn = Callable[[ObsEvent], None]


@dataclass(kw_only=True)
class HuntRun(ShardRun):
    """One hunt's scheduling input: its jobs and its artifact store.

    A streaming hunt (``stream=True``) emits one
    :class:`~repro.obs.events.HuntTestChecked` (anomalies + window
    verdicts) per closed test.  ``stream`` is ignored when a custom
    ``shard_runner`` is injected — fault-injection runners replace the
    execution path wholesale.
    """

    hunt_id: str


@dataclass(frozen=True)
class HuntOutcome:
    """Where one hunt ended up after a scheduling pass."""

    hunt_id: str
    #: "done" | "paused" | "cancelled" | "failed"
    status: str
    #: Results in spec merge order; complete only when status=="done".
    results: tuple[CampaignResult, ...] = ()
    skipped: tuple[str, ...] = ()
    retries: int = 0
    error: str | None = None

    def signature(self) -> str | None:
        """The merged golden signature (done hunts only)."""
        if self.status != "done":
            return None
        return fleet_signature(list(self.results))


def _outcome(run: HuntRun) -> HuntOutcome:
    if run.halt is None:
        return HuntOutcome(
            hunt_id=run.hunt_id, status="done",
            results=tuple(run.results[job.index] for job in run.jobs),
            skipped=run.skipped, retries=run.retries,
        )
    failed = run.halt not in ("paused", "cancelled")
    return HuntOutcome(hunt_id=run.hunt_id,
                       status="failed" if failed else run.halt,
                       skipped=run.skipped, retries=run.retries,
                       error=run.halt if failed else None)


def run_hunts(runs: list[HuntRun], *,
              workers: int = 1,
              policy: str = "stealing",
              shard_runner: ShardRunner | None = None,
              shard_timeout: float | None = None,
              control: ControlFn | None = None,
              on_event: EventFn | None = None) -> list[HuntOutcome]:
    """Drain every hunt's shards over one worker pool.

    Parameters
    ----------
    workers:
        Pool width.  1 executes in-process (no worker processes), the
        serial reference path; >= 2 is process-per-shard.
    policy:
        ``"stealing"`` (default) interleaves hunts and steals from the
        largest backlog; ``"sequential"`` drains hunts strictly one at
        a time (the benchmark baseline).
    shard_runner:
        Override of :func:`~repro.fleet.executor.execute_shard`
        (crash-injection in tests, sleep shards in benchmarks).
    shard_timeout:
        Wall-clock budget per shard attempt (workers >= 2 only).
    control:
        ``hunt_id -> "run" | "pause" | "cancel"``, polled between
        dispatches — the API's pause/cancel reach a running pass here.
        Pausing parks the hunt's queued shards (in-flight shards
        finish and persist); cancelling discards them.
    on_event:
        Receives :class:`~repro.obs.events.HuntShardCompleted` /
        :class:`~repro.obs.events.HuntShardRetried` /
        :class:`~repro.obs.events.HuntTestChecked` telemetry.
    """
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if policy not in SCHEDULER_POLICIES:
        raise ConfigurationError(
            f"unknown scheduler policy {policy!r} "
            f"(expected one of {SCHEDULER_POLICIES})"
        )
    for run in runs:
        resume(run)
    drain(runs, workers=workers,
          hooks=_HuntHooks(on_event or (lambda event: None),
                           control or (lambda hunt_id: "run")),
          shard_runner=shard_runner, shard_timeout=shard_timeout,
          pick=lambda runs, affinity: _next_run(runs, policy, affinity))
    return [_outcome(run) for run in runs]


class _HuntHooks(PoolHooks):
    """Pause/cancel control and the hunt event feed."""

    def __init__(self, emit: EventFn, verdict: ControlFn) -> None:
        self.emit = emit
        self.verdict = verdict

    def poll(self, runs):
        for run in runs:
            if run.halt is not None:
                continue
            decision = self.verdict(run.hunt_id)
            if decision == "pause" and run.queue:
                run.halt = "paused"
            elif decision == "cancel":
                run.queue.clear()
                run.halt = "cancelled"

    def checked(self, run, job, message):
        self.emit(HuntTestChecked(
            hunt_id=run.hunt_id, shard_id=job.shard_id,
            test_id=message["test_id"],
            test_index=message["test_index"],
            anomalies=message["anomalies"],
            windows=message["windows"],
            state_size=message["state_size"],
        ))

    def completed(self, run, job, attempt, result):
        self.emit(HuntShardCompleted(
            hunt_id=run.hunt_id, shard_id=job.shard_id,
            done=len(run.results), total=len(run.jobs),
        ))

    def retried(self, run, job, attempt, reason):
        self.emit(HuntShardRetried(
            hunt_id=run.hunt_id, shard_id=job.shard_id,
            attempt=attempt, reason=reason,
        ))


def _next_run(runs: list[HuntRun], policy: str,
              affinity: HuntRun | None) -> HuntRun | None:
    """The hunt the next free worker should draw from.

    Stealing: the affinity hunt while it has work, else the
    dispatchable hunt with the largest backlog (ties: submission
    order).  Sequential: the first hunt, in submission order, that is
    not finished — and only if none before it still has work in
    flight, preserving the strict one-hunt-at-a-time baseline.
    """
    if policy == "sequential":
        for run in runs:
            if run.dispatchable():
                return run
            if run.running and run.halt is None:
                return None  # barrier: earlier hunt still in flight
        return None
    if affinity is not None and affinity.dispatchable():
        return affinity
    candidates = [run for run in runs if run.dispatchable()]
    if not candidates:
        return None
    return max(candidates, key=lambda run: len(run.queue))
