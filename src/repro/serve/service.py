"""The campaign service: hunts end to end, minus the transport.

:class:`CampaignService` is the application core the HTTP layer wraps:
submit/pause/resume/cancel hunts, drive scheduling passes over the
worker pool, and answer status/results/artifact queries.  It owns a
:class:`~repro.serve.store.HuntStore` (all state is on disk, so a
service restart resumes exactly where the last pass checkpointed) and
delegates execution to :func:`~repro.serve.scheduler.run_hunts`.

The determinism boundary runs through this class: everything *above*
it (request handling, scheduling order, pause timing) may depend on
wall clock and thread timing; everything *below* a shard boundary is a
pure function of the hunt spec.  Consequently a hunt's artifact store
and merged ``fleet_signature`` are byte-identical to a direct
``run_fleet`` of the same spec — whatever the pool width, stealing
policy, or pause/resume history.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Any, Callable, Iterator

from repro.errors import InvalidRequestError, NotFoundError
from repro.fleet.pool import (
    DEFAULT_MAX_RETRIES,
    ShardRunner,
    check_max_retries,
)
from repro.obs.events import (
    HuntShardCompleted,
    HuntShardRetried,
    HuntStateChanged,
    HuntSubmitted,
    HuntTestChecked,
    ObsEvent,
)
from repro.serve.hunt import HuntSpec, HuntState
from repro.serve.scheduler import HuntOutcome, HuntRun, run_hunts
from repro.serve.store import HuntStore

__all__ = ["CampaignService"]

EventFn = Callable[[ObsEvent], None]


class CampaignService:
    """Hunt lifecycle + scheduling over one on-disk hunt store."""

    def __init__(self, root: str, *,
                 workers: int = 1,
                 policy: str = "stealing",
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 on_event: EventFn | None = None) -> None:
        check_max_retries(max_retries)
        self.store = HuntStore(root)
        self.workers = workers
        self.policy = policy
        self.max_retries = max_retries
        self._on_event = on_event or (lambda event: None)
        #: hunt_id -> "pause" | "cancel", read by the scheduler's
        #: control poll; written by the API thread mid-pass.
        self._control: dict[str, str] = {}
        self._lock = threading.Lock()

    # -- Submission and lifecycle ---------------------------------------

    def submit(self, spec: HuntSpec, owner: str = "",
               metadata: dict[str, Any] | None = None) -> HuntState:
        """Queue a new hunt; returns its persisted state."""
        with self._lock:
            seq = self.store.next_seq()
            state = HuntState(
                hunt_id=f"h{seq:04d}", spec=spec, seq=seq,
                shards_total=spec.total_shards, owner=owner,
                metadata=metadata or {},
            )
            self.store.save(state)
            self.store.append_event(
                state.hunt_id, "hunt.submitted",
                services=list(spec.services),
                shards=state.shards_total,
            )
        self._emit(HuntSubmitted(hunt_id=state.hunt_id,
                                 services=spec.services,
                                 shards=state.shards_total))
        return state

    def hunt(self, hunt_id: str) -> HuntState:
        return self.store.load(hunt_id)

    def hunts(self) -> list[HuntState]:
        """Every hunt, in submission order."""
        return [self.store.load(hunt_id)
                for hunt_id in self.store.hunt_ids()]

    def pause(self, hunt_id: str) -> HuntState:
        """Park a hunt's remaining shards (in-flight ones finish)."""
        with self._lock:
            state = self.store.load(hunt_id)
            if state.status == "running":
                # A pass may be mid-flight; the scheduler parks the
                # queue at its next control poll, and the pass-end
                # bookkeeping reconciles the progress counters.
                self._control[hunt_id] = "pause"
            return self._transition(state, "paused")

    def resume(self, hunt_id: str) -> HuntState:
        """Re-queue a paused hunt (completed shards stay done)."""
        with self._lock:
            state = self.store.load(hunt_id)
            self._control.pop(hunt_id, None)
            if state.status != "paused":
                raise InvalidRequestError(
                    f"hunt {hunt_id!r} is {state.status}, not paused"
                )
            return self._transition(state, "queued")

    def cancel(self, hunt_id: str) -> HuntState:
        """Abandon a hunt's remaining shards permanently."""
        with self._lock:
            state = self.store.load(hunt_id)
            if state.status == "running":
                self._control[hunt_id] = "cancel"
            return self._transition(state, "cancelled")

    def _transition(self, state: HuntState, target: str,
                    **changes: Any) -> HuntState:
        advanced = state.advance(target, **changes)
        self.store.save(advanced)
        self.store.append_event(
            state.hunt_id, "hunt.state",
            previous=state.status, status=advanced.status,
        )
        self._emit(HuntStateChanged(
            hunt_id=state.hunt_id, previous=state.status,
            status=advanced.status,
            signature=advanced.fleet_signature,
            error=advanced.error,
        ))
        return advanced

    # -- Scheduling passes ----------------------------------------------

    def runnable_hunts(self) -> list[HuntState]:
        """Hunts a pass would pick up: queued, plus ``running`` ones
        left behind by a crashed pass (checkpoint/resume)."""
        return [state for state in self.hunts()
                if state.status in ("queued", "running")]

    def run_pending(self, *,
                    shard_runner: ShardRunner | None = None,
                    shard_timeout: float | None = None
                    ) -> list[HuntOutcome]:
        """One scheduling pass: drain every runnable hunt's shards.

        Returns the per-hunt outcomes; states, events, and artifact
        stores are persisted as a side effect.  Safe to call in a
        loop — a pass with nothing runnable returns empty.
        """
        with self._lock:
            pending = self.runnable_hunts()
            runs = []
            for state in pending:
                if state.status == "queued":
                    state = self._transition(state, "running")
                spec = state.spec.fleet_spec()
                artifact_store = self.store.artifact_store(
                    state.hunt_id
                )
                artifact_store.initialize(spec)
                runs.append(HuntRun(
                    hunt_id=state.hunt_id,
                    jobs=tuple(spec.jobs()),
                    store=artifact_store,
                    max_retries=self.max_retries,
                    stream=state.spec.stream,
                ))
        if not runs:
            return []
        outcomes = run_hunts(
            runs, workers=self.workers, policy=self.policy,
            shard_runner=shard_runner, shard_timeout=shard_timeout,
            control=self._control_verdict,
            on_event=self._forward_scheduler_event,
        )
        with self._lock:
            for outcome in outcomes:
                self._finalize(outcome)
        return outcomes

    def _control_verdict(self, hunt_id: str) -> str:
        return self._control.get(hunt_id, "run")

    def _forward_scheduler_event(self, event: ObsEvent) -> None:
        if isinstance(event, HuntShardCompleted):
            self.store.append_event(
                event.hunt_id, "shard.completed",
                shard_id=event.shard_id, done=event.done,
                total=event.total,
            )
        elif isinstance(event, HuntTestChecked):
            self.store.append_event(
                event.hunt_id, "test.checked",
                shard_id=event.shard_id, test_id=event.test_id,
                test_index=event.test_index,
                anomalies=event.anomalies or {},
                windows=event.windows or {},
                state_size=event.state_size,
            )
        elif isinstance(event, HuntShardRetried):
            self.store.append_event(
                event.hunt_id, "shard.retried",
                shard_id=event.shard_id, attempt=event.attempt,
                reason=event.reason,
            )
        self._emit(event)

    def _finalize(self, outcome: HuntOutcome) -> None:
        state = self.store.load(outcome.hunt_id)
        self._control.pop(outcome.hunt_id, None)
        done_count = len(self.store.artifact_store(
            outcome.hunt_id
        ).completed_shards())
        changes: dict[str, Any] = {
            "shards_done": done_count,
            "retries": state.retries + outcome.retries,
        }
        if outcome.status == "done":
            changes["fleet_signature"] = outcome.signature()
        elif outcome.status == "failed":
            changes["error"] = outcome.error
        if state.status == outcome.status:
            # The API already moved the state (pause/cancel landed
            # mid-pass); just persist the progress counters.
            self.store.save(replace(state, **changes))
            return
        try:
            self._transition(state, outcome.status, **changes)
        except InvalidRequestError:
            # The API raced the pass into a state the outcome cannot
            # legally follow (e.g. cancelled just as the last shard
            # landed).  The API-chosen state stands; keep the
            # counters.
            self.store.save(replace(state, **changes))

    # -- Queries ---------------------------------------------------------

    def hunt_result_items(self, hunt_id: str) -> list[dict[str, Any]]:
        """Completed test records, flat, in spec merge order.

        Each item carries its shard id and the record's JSON-safe
        encoding, keyed for cursor pagination as
        ``<shard_id>/<test_id>``.
        """
        state = self.store.load(hunt_id)
        artifact_store = self.store.artifact_store(hunt_id)
        jobs = state.spec.fleet_spec().jobs()
        items: list[dict[str, Any]] = []
        for job in jobs:
            if artifact_store.shard_state(job.shard_id) != "complete":
                continue
            for record in artifact_store.load_shard_records(
                    job.shard_id):
                items.append({
                    "key": f"{job.shard_id}/{record['test_id']}",
                    "shard_id": job.shard_id,
                    "record": record,
                })
        return items

    def hunt_obs(self, hunt_id: str) -> dict[str, Any]:
        """The hunt's merged obs snapshot, in spec merge order.

        Completed shards' obs exports are merged exactly the way
        ``repro-consistency obs`` merges an artifact directory, so the
        served snapshot is byte-identical to the offline one.  Shards
        whose telemetry is absent or damaged are listed in
        ``missing`` — obs files degrade, they never fail the query.
        """
        from repro.obs import merge_obs_snapshots

        state = self.store.load(hunt_id)
        artifact_store = self.store.artifact_store(hunt_id)
        merged_ids: list[str] = []
        missing: list[str] = []
        snapshots: list[dict] = []
        # The artifact store is created by the first scheduling pass;
        # before that every shard is pending and the merge is empty.
        initialized = artifact_store.manifest_path.is_file()
        jobs = state.spec.fleet_spec().jobs() if initialized else ()
        for job in jobs:
            if artifact_store.shard_state(job.shard_id) != "complete":
                continue
            snapshot = artifact_store.load_shard_obs(job.shard_id)
            if snapshot is None:
                missing.append(job.shard_id)
                continue
            merged_ids.append(job.shard_id)
            snapshots.append(snapshot)
        return {
            "hunt_id": hunt_id,
            "shards": merged_ids,
            "missing": missing,
            "snapshot": merge_obs_snapshots(snapshots),
        }

    def events(self, hunt_id: str,
               after: int = -1) -> Iterator[dict[str, Any]]:
        return self.store.events(hunt_id, after=after)

    def artifact_names(self, hunt_id: str) -> list[str]:
        return self.store.artifact_names(hunt_id)

    def artifact_bytes(self, hunt_id: str, name: str) -> bytes:
        if not self.store.exists(hunt_id):
            raise NotFoundError(f"no hunt {hunt_id!r}")
        return self.store.artifact_bytes(hunt_id, name)

    def _emit(self, event: ObsEvent) -> None:
        self._on_event(event)
