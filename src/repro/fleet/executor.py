"""Deterministic parallel campaign execution: the fleet shell.

:func:`run_fleet` executes every shard of a
:class:`~repro.fleet.spec.FleetSpec` and merges the results back into
the spec's expansion order, bit-identical to running the same
campaigns serially:

1. **Shard purity** — a shard is ``run_campaign(service, config)``
   with a fully resolved config and its own simulator world and seed.
2. **Value transport** — workers return records through the compact
   JSON encoding of :mod:`repro.io`, whose round trip is exact.
3. **Ordered merge** — results are keyed by shard index, so worker
   scheduling and retries reorder *execution*, never *output*.

A fleet is a one-run drain of the worker pool in
:mod:`repro.fleet.pool` — the pool hunts run on — under its one
failure policy: worker crashes and timeouts are retried within a
bounded budget, a campaign exception fails at once.  The fleet fails
by raising: at ``jobs=1`` the campaign's own exception, unwrapped; at
``jobs>=2`` a :class:`~repro.errors.FleetError` carrying the worker
traceback, or naming the attempts once the retry budget is spent.

With an output directory, completed shards are persisted through the
:class:`~repro.fleet.store.ArtifactStore` as they finish, and a
re-invocation against the same directory skips every shard whose
stored records are digest-valid — checkpoint/resume for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError, FleetError
from repro.fleet.digest import fleet_signature
from repro.fleet.pool import (
    DEFAULT_MAX_RETRIES,
    PoolHooks,
    ShardRun,
    ShardRunner,
    _records_to_jsonable,  # noqa: F401 - for hand-written shards
    drain,
    execute_shard,
    resume,
)
from repro.fleet.spec import FleetSpec, ShardJob
from repro.fleet.store import ArtifactStore
from repro.methodology.runner import CampaignResult
from repro.obs.events import (
    EventCallback,
    FleetCompleted,
    FleetStarted,
    ShardCompleted,
    ShardRetried,
    ShardSkipped,
    ShardStarted,
    ShardTestChecked,
)

__all__ = ["run_fleet", "execute_shard", "FleetOutcome",
           "DEFAULT_MAX_RETRIES"]


@dataclass
class FleetOutcome:
    """Everything one fleet run produced, in spec merge order."""

    spec: FleetSpec
    #: The expanded jobs, aligned index-for-index with ``results``.
    jobs: tuple[ShardJob, ...]
    results: list[CampaignResult] = field(default_factory=list)
    #: Shard ids restored from the artifact store instead of executed.
    skipped: tuple[str, ...] = ()
    executed: tuple[str, ...] = ()
    retries: int = 0

    def signature(self) -> str:
        """The golden-signature digest of the merged results."""
        return fleet_signature(self.results)

    def merged_obs(self) -> dict | None:
        """All shards' obs snapshots merged in spec order.

        Counter and histogram entries sum across shards; spans
        concatenate shard-by-shard.  Because the merge visits shards
        in spec order, the result is independent of worker scheduling
        — and for a single shard it is the shard's snapshot verbatim,
        which is what makes fleet exports byte-comparable with serial
        runs.  Returns None if any shard is missing its snapshot
        (e.g. resumed from a store written before obs existed).
        """
        from repro.obs import merge_obs_snapshots

        snapshots = [result.obs for result in self.results]
        if any(snapshot is None for snapshot in snapshots):
            return None
        return merge_obs_snapshots(snapshots)

    def by_service(self) -> dict[str, list[CampaignResult]]:
        """Results grouped by service, preserving merge order."""
        grouped: dict[str, list[CampaignResult]] = {}
        for job, result in zip(self.jobs, self.results):
            grouped.setdefault(job.service, []).append(result)
        return grouped


def run_fleet(spec: FleetSpec, *,
              jobs: int = 1,
              out_dir: str | Path | None = None,
              on_event: EventCallback | None = None,
              shard_timeout: float | None = None,
              max_retries: int = DEFAULT_MAX_RETRIES,
              shard_runner: ShardRunner | None = None,
              stream: bool = False) -> FleetOutcome:
    """Execute every shard of ``spec`` and merge in spec order.

    Parameters
    ----------
    jobs:
        Worker processes.  1 (default) executes in-process; >= 2
        forks one worker process per shard attempt.
    out_dir:
        Artifact-store directory.  Enables persistence and resume:
        digest-valid completed shards found there are loaded instead
        of re-run, and newly completed shards are written back as
        they finish.
    on_event:
        Telemetry callback receiving :mod:`repro.obs.events` events.
    shard_timeout:
        Wall-clock seconds one shard attempt may run (workers only);
        a timed-out worker is terminated and the shard retried.
    max_retries:
        Extra attempts per shard after worker crashes/timeouts.
    shard_runner:
        Override of :func:`execute_shard`; must be a module-level
        callable when ``jobs >= 2`` (it crosses the process boundary).
    stream:
        Use the online detection fast path
        (:func:`repro.stream.fleet.run_stream_shard`): each shard's
        records come from the streaming engine instead of the batch
        re-check (bit-identical by the parity contract), every test
        closure is reported incrementally as a
        :class:`~repro.obs.events.ShardTestChecked` event — piped
        from workers while shards are still running — and, with an
        output directory, each shard's operation stream is archived to
        ``traces/<shard_id>.ops.jsonl`` for ``stream --from-trace``.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if stream and shard_runner is not None:
        raise ConfigurationError(
            "stream=True supplies its own shard runner; pass one or "
            "the other"
        )
    if jobs > 1 and spec.base_config.keep_traces:
        raise ConfigurationError(
            "keep_traces is incompatible with parallel execution: "
            "full traces are a debugging aid and do not cross the "
            "worker boundary (run with jobs=1 to keep them)"
        )
    run = ShardRun(jobs=tuple(spec.jobs()), max_retries=max_retries,
                   stream=stream)
    emit = on_event or (lambda event: None)
    if out_dir is not None:
        run.store = ArtifactStore(out_dir)
        run.store.initialize(spec)

    resume(run)
    total = len(run.jobs)
    executed = tuple(job.shard_id for job, _ in run.queue)
    emit(FleetStarted(total_shards=total, jobs=jobs,
                      resumed=len(run.skipped)))
    for job in run.jobs:
        if job.index in run.results:  # restored from the store
            emit(_shard_event(ShardSkipped, job, total,
                              reason="complete in store"))

    drain([run], workers=jobs, hooks=_FleetHooks(emit),
          shard_runner=shard_runner, shard_timeout=shard_timeout)

    emit(FleetCompleted(executed=len(executed),
                        skipped=len(run.skipped), retries=run.retries))
    return FleetOutcome(
        spec=spec, jobs=run.jobs,
        results=[run.results[job.index] for job in run.jobs],
        skipped=run.skipped, executed=executed, retries=run.retries,
    )


def _shard_event(cls, job: ShardJob, total: int, **extra):
    return cls(shard_id=job.shard_id, index=job.index, total=total,
               service=job.service, seed=job.seed, label=job.label,
               **extra)


class _FleetHooks(PoolHooks):
    """Shard lifecycle events; a failed shard fails the fleet."""

    def __init__(self, emit: EventCallback) -> None:
        self.emit = emit

    def _shard(self, cls, run, job, **extra) -> None:
        self.emit(_shard_event(cls, job, len(run.jobs), **extra))

    def started(self, run, job, attempt):
        self._shard(ShardStarted, run, job, attempt=attempt)

    def checked(self, run, job, message):
        self._shard(ShardTestChecked, run, job,
                    test_id=message["test_id"],
                    test_index=message["test_index"],
                    anomalies=message["anomalies"],
                    state_size=message["state_size"])

    def completed(self, run, job, attempt, result):
        self._shard(ShardCompleted, run, job, attempts=attempt,
                    records=len(result.records))

    def retried(self, run, job, attempt, reason):
        self._shard(ShardRetried, run, job, attempt=attempt,
                    reason=reason)

    def failed(self, run, reason, error=None):
        raise error if error is not None else FleetError(reason)
