"""The one worker pool fleets and hunts drain shards through.

:func:`~repro.fleet.executor.run_fleet` and
:func:`~repro.serve.scheduler.run_hunts` both hand a list of
:class:`ShardRun` — shard jobs, an artifact store, a retry budget — to
:func:`drain`.  ``workers == 1`` executes in-process, keeping results
live (``keep_traces`` survives); ``workers >= 2`` forks one process
per shard attempt, with a wall-clock deadline, and ships records back
through :mod:`repro.io`'s exact JSON round trip.  A streaming run
reports every closed test as one interim ``{"type": "test"}`` message
(anomaly counts and divergence-window verdicts), piped from workers
while the shard still runs, and archives its operation stream.

One failure policy for every shell:

* a worker *crash or timeout* is environmental: retried up to the
  run's ``max_retries``, then the run fails;
* a campaign exception is deterministic: the run fails at once;
* once a run is halted (paused, cancelled, failed), failures of its
  in-flight attempts are dropped — no retry, no event, no overwrite.

The shells differ only in their :class:`PoolHooks`: the events they
emit and what failing means (a hunt halts, a fleet raises).  Results
merge by shard index and persist through the run's
:class:`~repro.fleet.store.ArtifactStore`, so scheduling reorders
*execution*, never *output*; wall-clock time decides when a shard
runs, never what it computes.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Callable

from repro.errors import ConfigurationError
from repro.fleet.spec import ShardJob
from repro.fleet.store import ArtifactStore
from repro.methodology.runner import CampaignResult, run_campaign

__all__ = ["ShardRun", "PoolHooks", "drain", "resume", "execute_shard",
           "check_max_retries", "DEFAULT_MAX_RETRIES"]

#: Extra attempts granted to a shard after a worker crash or timeout.
DEFAULT_MAX_RETRIES = 2

#: A shard runner: ShardJob -> CampaignResult.  Must be picklable
#: (module-level) to cross the worker-process boundary.
ShardRunner = Callable[[ShardJob], CampaignResult]


def execute_shard(job: ShardJob) -> CampaignResult:
    """Run one shard: a full campaign, pure in ``(service, config)``."""
    return run_campaign(job.service, job.config)


def check_max_retries(max_retries: int) -> None:
    if max_retries < 0:
        raise ConfigurationError("max_retries must be >= 0")


@dataclass
class ShardRun:
    """One list of shards the pool drains, and its progress."""

    jobs: tuple[ShardJob, ...]
    store: ArtifactStore | None = None
    max_retries: int = DEFAULT_MAX_RETRIES
    #: Execute shards through the streaming engine, reporting each
    #: closed test to :meth:`PoolHooks.checked`.
    stream: bool = False

    # -- filled by the pool ---------------------------------------------
    queue: deque = field(default_factory=deque, repr=False)
    results: dict = field(default_factory=dict, repr=False)
    skipped: tuple[str, ...] = ()
    running: int = 0
    retries: int = 0
    halt: str | None = None  # "paused" | "cancelled" | error text

    def __post_init__(self) -> None:
        check_max_retries(self.max_retries)

    def dispatchable(self) -> bool:
        return bool(self.queue) and self.halt is None


class PoolHooks:
    """A shell's view of the pool.  Events default to none; a failed
    run halts, and the pool keeps serving every other run."""

    def poll(self, runs: list[ShardRun]) -> None:
        """Before each dispatch round (pause/cancel land here)."""

    def started(self, run: ShardRun, job: ShardJob, attempt: int):
        """A shard attempt began."""

    def checked(self, run: ShardRun, job: ShardJob, message: dict):
        """A streaming shard closed one test (``_test_message``)."""

    def completed(self, run: ShardRun, job: ShardJob, attempt: int,
                  result: CampaignResult):
        """A shard's result is stored and merged."""

    def retried(self, run: ShardRun, job: ShardJob, attempt: int,
                reason: str):
        """A crashed or timed-out shard was queued for ``attempt``."""

    def failed(self, run: ShardRun, reason: str,
               error: Exception | None = None) -> None:
        """The run failed; ``error`` is an in-process campaign's own."""
        run.queue.clear()
        run.halt = reason


def _first_dispatchable(runs: list[ShardRun],
                        affinity: ShardRun | None) -> ShardRun | None:
    return next((run for run in runs if run.dispatchable()), None)


def resume(run: ShardRun) -> None:
    """Load digest-valid completed shards; queue the rest (FIFO)."""
    for job in run.jobs:
        if run.store is not None and \
                run.store.shard_state(job.shard_id) == "complete":
            run.results[job.index] = _result_from_records(
                job, run.store.load_shard_records(job.shard_id),
                obs=run.store.load_shard_obs(job.shard_id),
            )
        else:
            run.queue.append((job, 1))
    run.skipped = tuple(job.shard_id for job in run.jobs
                        if job.index in run.results)


def drain(runs: list[ShardRun], *,
          workers: int,
          hooks: PoolHooks,
          shard_runner: ShardRunner | None = None,
          shard_timeout: float | None = None,
          pick: Callable | None = None) -> None:
    """Execute the queued shards of every run until none is left.

    Call :func:`resume` on each run first.  ``pick(runs, affinity)``
    chooses the run a free worker draws from, given the run that
    worker served last (default: the first run with queued work).
    ``shard_timeout`` bounds one attempt's wall-clock seconds
    (``workers >= 2`` only).
    """
    pick = pick or _first_dispatchable
    if workers == 1:
        _drain_inline(runs, hooks, shard_runner, pick)
    else:
        _drain_processes(runs, workers, hooks, shard_runner,
                         shard_timeout, pick)


# -- Transport ----------------------------------------------------------


def _result_from_records(job: ShardJob,
                         jsonable_records: list[dict],
                         obs: dict | None = None) -> CampaignResult:
    from repro.io import record_from_dict

    result = CampaignResult(service=job.service, config=job.config,
                            obs=obs)
    result.records.extend(record_from_dict(record, job.service)
                          for record in jsonable_records)
    return result


def _records_to_jsonable(result: CampaignResult) -> list[dict]:
    from repro.io import record_to_dict

    return [record_to_dict(record) for record in result.records]


def _test_message(record, engine, checked: int) -> dict:
    """One closed test as an interim wire/hook payload.

    ``windows`` holds the per-pair divergence verdicts a follow-mode
    consumer of an event feed acts on: which agent pairs diverged,
    over which intervals, and whether they reconverged.
    """
    def encode(windows) -> list[dict]:
        return [{"pair": list(result.pair),
                 "intervals": [list(span) for span in result.intervals],
                 "converged": result.converged}
                for _pair, result in sorted(windows.items())]

    return {
        "type": "test",
        "test_id": record.test_id,
        "test_index": checked,
        "anomalies": {kind: len(observations) for kind, observations
                      in record.report.observations.items()
                      if observations},
        "windows": {"content": encode(record.content_windows),
                    "order": encode(record.order_windows)},
        "state_size": engine.state_size(),
    }


# -- One attempt --------------------------------------------------------


def _attempt_args(run: ShardRun, job: ShardJob,
                  shard_runner: ShardRunner | None) -> tuple:
    """``(job, runner, trace_path)``; runner None = streaming engine."""
    if shard_runner is not None or not run.stream:
        return job, shard_runner or execute_shard, None
    trace_path = (run.store.trace_path(job.shard_id)
                  if run.store is not None else None)
    return job, None, trace_path


def _execute(job: ShardJob, runner: ShardRunner | None, trace_path,
             on_test: Callable[[dict], None]) -> CampaignResult:
    if runner is not None:
        return runner(job)
    from repro.stream.fleet import run_stream_shard

    checked = 0

    def on_record(meta, record, engine):
        nonlocal checked
        on_test(_test_message(record, engine, checked))
        checked += 1

    return run_stream_shard(job, on_record, trace_path)


def _worker(conn, job: ShardJob, runner: ShardRunner | None,
            trace_path) -> None:
    """Worker-process entry point: interim messages, then the result.

    A broken pipe on an interim send is ignored — the host may already
    have abandoned this attempt (timeout), and the final send's
    failure handling covers the result itself.
    """
    def send_test(message: dict) -> None:
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            pass

    try:
        result = _execute(job, runner, trace_path, send_test)
        payload = {"ok": True,
                   "records": _records_to_jsonable(result),
                   "obs": result.obs}
    except BaseException:
        payload = {"ok": False, "error": traceback.format_exc()}
    try:
        conn.send(payload)
    finally:
        conn.close()


def _complete(run: ShardRun, job: ShardJob, attempt: int,
              result: CampaignResult, records: list[dict] | None,
              hooks: PoolHooks) -> None:
    if run.store is not None:
        run.store.write_shard(
            job, records if records is not None
            else _records_to_jsonable(result),
            obs=result.obs,
        )
    run.results[job.index] = result
    hooks.completed(run, job, attempt, result)


def _retry_or_fail(run: ShardRun, job: ShardJob, attempt: int,
                   reason: str, hooks: PoolHooks) -> None:
    """The one rule for environmental failures (crash, timeout)."""
    if run.halt is not None:
        return
    if attempt > run.max_retries:
        hooks.failed(run, f"shard {job.shard_id!r} failed after "
                          f"{attempt} attempts: {reason}")
        return
    run.retries += 1
    hooks.retried(run, job, attempt + 1, reason)
    run.queue.appendleft((job, attempt + 1))


# -- In-process loop (workers == 1) --------------------------------------


def _drain_inline(runs: list[ShardRun], hooks: PoolHooks,
                  shard_runner: ShardRunner | None,
                  pick: Callable) -> None:
    affinity: ShardRun | None = None
    while any(run.dispatchable() for run in runs):
        hooks.poll(runs)
        run = pick(runs, affinity)
        if run is None:
            return
        affinity = run
        job, attempt = run.queue.popleft()
        hooks.started(run, job, attempt)
        try:
            result = _execute(
                *_attempt_args(run, job, shard_runner),
                lambda message: hooks.checked(run, job, message),
            )
        except Exception as exc:  # noqa: BLE001 - the shell decides
            hooks.failed(run, f"shard {job.shard_id!r} campaign failed: "
                              f"{exc}", exc)
            continue
        _complete(run, job, attempt, result, None, hooks)


# -- Process loop (workers >= 2) -----------------------------------------


def _mp_context():
    """Prefer fork (cheap, inherits the loaded package); fall back."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


@dataclass
class _InFlight:
    run: ShardRun
    job: ShardJob
    attempt: int
    process: object
    deadline: float | None
    slot: int


def _drain_processes(runs: list[ShardRun], workers: int,
                     hooks: PoolHooks,
                     shard_runner: ShardRunner | None,
                     shard_timeout: float | None,
                     pick: Callable) -> None:
    ctx = _mp_context()
    in_flight: dict[object, _InFlight] = {}
    #: worker slot -> the run it served last; slots are 0..N-1.
    affinity: list[ShardRun | None] = [None] * workers
    free_slots = deque(range(workers))

    def release(conn) -> _InFlight:
        entry = in_flight.pop(conn)
        free_slots.append(entry.slot)
        entry.run.running -= 1
        conn.close()
        entry.process.join()
        return entry

    try:
        while in_flight or any(run.dispatchable() for run in runs):
            hooks.poll(runs)
            while free_slots:
                run = pick(runs, affinity[free_slots[0]])
                if run is None:
                    break
                slot = free_slots.popleft()
                affinity[slot] = run
                job, attempt = run.queue.popleft()
                recv, send = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker,
                    args=(send, *_attempt_args(run, job, shard_runner)),
                    name=f"shard-{job.shard_id}", daemon=True,
                )
                process.start()
                send.close()
                deadline = (time.monotonic() + shard_timeout
                            if shard_timeout is not None else None)
                in_flight[recv] = _InFlight(run, job, attempt, process,
                                            deadline, slot)
                run.running += 1
                hooks.started(run, job, attempt)
            if not in_flight:
                break  # every remaining run is halted

            # Wake on result/EOF, or in time to enforce a deadline.
            now = time.monotonic()
            poll = max(0.0, min([0.5] + [
                entry.deadline - now for entry in in_flight.values()
                if entry.deadline is not None]))
            for conn in connection.wait(list(in_flight), timeout=poll):
                try:
                    payload = conn.recv()
                except EOFError:
                    payload = None
                if payload is not None and payload.get("type") == "test":
                    entry = in_flight[conn]
                    hooks.checked(entry.run, entry.job, payload)
                    continue
                entry = release(conn)
                if payload is None:
                    _retry_or_fail(
                        entry.run, entry.job, entry.attempt,
                        "worker crashed (exit code "
                        f"{entry.process.exitcode})", hooks,
                    )
                elif payload["ok"]:
                    records = payload["records"]
                    result = _result_from_records(entry.job, records,
                                                  obs=payload["obs"])
                    _complete(entry.run, entry.job, entry.attempt,
                              result, records, hooks)
                elif entry.run.halt is None:
                    hooks.failed(entry.run,
                                 f"shard {entry.job.shard_id!r} campaign "
                                 f"failed:\n{payload['error']}")

            now = time.monotonic()
            for conn, entry in list(in_flight.items()):
                if entry.deadline is not None and now > entry.deadline:
                    entry.process.terminate()
                    release(conn)
                    _retry_or_fail(
                        entry.run, entry.job, entry.attempt,
                        f"timed out after {shard_timeout:.1f}s", hooks,
                    )
    finally:
        for entry in in_flight.values():
            entry.process.terminate()
            entry.process.join()
            entry.run.running -= 1
