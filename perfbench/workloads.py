"""The benchmark's workloads, each driven through public entry points.

A workload turns the run's ``--seed`` into a fixed list of *units*
(one unit = one call of the system, e.g. one campaign) and runs one
unit at a time.  Entry points are looked up on their public module at
call time, never kept from set-up, so that a traced run sees the
wrappers the layer ledger installs.  Every unit returns an :class:`Outcome`: how many
operations it attempted, a signature of its output, the deterministic
counts read off its public results, and the invariants it broke.

Why these four workloads, and what each one moves, is in
``perfbench/LAYERS.md``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

__all__ = ["Outcome", "WORKLOADS"]


@dataclass
class Outcome:
    """What one unit did, as seen from outside the system."""

    #: Operations attempted (tests, sessions or shards).
    ops: int
    #: Digest of the unit's output; equal inputs must give equal bytes.
    signature: str = ""
    #: Deterministic counts from the unit's public results.
    counts: dict = field(default_factory=dict)
    #: Broken invariants; any entry fails the unit.
    problems: list = field(default_factory=list)
    #: Host-time figures derived from the unit (not deterministic).
    host: dict = field(default_factory=dict)


class CampaignWorkload:
    """A serial paper campaign (Test 1 + Test 2, batch analysis).

    A full-size unit is one campaign of the repository's default
    length (``CampaignConfig.num_tests``, 100 tests per test type).
    Tests of one campaign post into the same simulated store, so
    per-test cost and layer shares depend on the campaign's length:
    short campaigns under-weigh the reads whose cost grows with the
    history (see ``LAYERS.md``).
    """

    op = "test"
    #: scale -> tests per test type per unit; None keeps
    #: ``CampaignConfig``'s default.
    TESTS = {"full": None, "tiny": 1}
    #: Units per cycle at the tiny scale.
    TINY_UNITS = 2

    def __init__(self, service: str, units: int) -> None:
        self.service = service
        #: Campaigns per cycle at full size.  Campaigns of different
        #: seeds differ in cost by a few percent, so a cycle holds as
        #: many as fit twice in one run: two of Google+, one of Feed,
        #: whose campaigns take twice as long.
        self.full_units = units

    def setup(self, root: Path, scale: str):
        import repro.methodology
        from repro.fleet.digest import fleet_signature

        num_tests = self.TESTS[scale]
        if num_tests is None:
            num_tests = repro.methodology.CampaignConfig().num_tests
        return SimpleNamespace(methodology=repro.methodology,
                               signature=fleet_signature,
                               num_tests=num_tests)

    def teardown(self, ctx) -> None:
        pass

    def units(self, seed: int, scale: str) -> list[int]:
        count = self.full_units if scale == "full" else self.TINY_UNITS
        return [seed * 1000 + k for k in range(count)]

    def expected_ops(self, ctx) -> int:
        return 2 * ctx.num_tests

    def run_unit(self, ctx, unit: int, probe) -> Outcome:
        methodology = ctx.methodology
        config = methodology.CampaignConfig(num_tests=ctx.num_tests,
                                            seed=unit)
        with probe:
            result = methodology.run_campaign(self.service, config)
        records = result.records
        outcome = Outcome(
            ops=self.expected_ops(ctx),
            signature=ctx.signature([result]),
            counts={
                "tests": len(records),
                "agent_reads": result.total_reads,
                "agent_writes": result.total_writes,
                "core.anomalies.observations": sum(
                    sum(record.report.summary().values())
                    for record in records),
            },
        )
        if len(records) != outcome.ops:
            outcome.problems.append(
                f"campaign returned {len(records)} of {outcome.ops} "
                "test records")
        return outcome


class WorldWorkload:
    """The gossip world scenario at a fixed session count."""

    op = "session"
    SCENARIO = Path("examples") / "scenarios" / "gossip_world.toml"
    #: scale -> sessions per unit.  Sessions/s falls as the count
    #: grows, so the count is part of the workload and never varies.
    SIZES = {"full": 5000, "tiny": 200}

    def setup(self, root: Path, scale: str):
        import repro.world
        from repro.scenario import load_scenario

        scenario = load_scenario(root / self.SCENARIO)
        spec = repro.world.world_from_scenario(
            scenario, sessions=self.SIZES[scale])
        return SimpleNamespace(spec=spec, world=repro.world)

    def teardown(self, ctx) -> None:
        pass

    def units(self, seed: int, scale: str) -> list[int]:
        return [seed]

    def expected_ops(self, ctx) -> int:
        return ctx.spec.sessions

    def run_unit(self, ctx, unit: int, probe) -> Outcome:
        with probe:
            result = ctx.world.run_world(ctx.spec, unit)
        outcome = Outcome(
            ops=self.expected_ops(ctx),
            signature=result.signature,
            counts={
                "tests": result.tests,
                "ops": result.ops,
                "world.epochs": result.epochs,
                "world.bus_messages": result.bus_messages,
                "world.bus_deferred": result.bus_deferred,
                "world.peak_open_state": result.peak_open_state,
                "stream.peak_state": result.max_stream_state,
                "core.anomalies.observations":
                    sum(result.anomalies.values()),
            },
        )
        if result.max_stream_state != 1:
            outcome.problems.append(
                f"max_stream_state {result.max_stream_state} != 1")
        if result.tests != ctx.spec.cohort_count:
            outcome.problems.append(
                f"{result.tests} of {ctx.spec.cohort_count} cohorts "
                "closed")
        if result.ops != ctx.spec.sessions:
            outcome.problems.append(
                f"{result.ops} ops for {ctx.spec.sessions} sessions")
        return outcome


class HuntWorkload:
    """Two concurrent streaming hunts through the in-process /v1 API."""

    op = "shard"
    WORKERS = 2
    SERVICES = ("googleplus", "facebook_feed", "blogger",
                "facebook_group")
    #: scale -> (units per cycle, tests per type in a large-hunt shard,
    #: in a small-hunt shard).  The large hunt has two seeds, the
    #: small one one seed, so shard costs are skewed both across
    #: services and across hunts.
    SIZES = {"full": (2, 4, 1), "tiny": (1, 1, 1)}

    def setup(self, root: Path, scale: str):
        import repro.api
        from repro.obs.events import (
            HuntShardCompleted,
            HuntStateChanged,
            HuntTestChecked,
        )
        from repro.serve import HuntServer

        work = root / ".bench_build" / "perfbench"
        work.mkdir(parents=True, exist_ok=True)
        ctx = SimpleNamespace(
            work=work, server=HuntServer, api=repro.api,
            completed=HuntShardCompleted, state=HuntStateChanged,
            checked=HuntTestChecked,
            sizes=self.SIZES[scale], scratch=None,
        )
        # Construct one server and store, as a run starts with one.
        ctx.scratch = tempfile.mkdtemp(prefix="setup-", dir=work)
        ctx.server(ctx.scratch, workers=self.WORKERS).issue_token()
        return ctx

    def teardown(self, ctx) -> None:
        shutil.rmtree(ctx.scratch, ignore_errors=True)

    def units(self, seed: int, scale: str) -> list[int]:
        return [seed * 1000 + 10 * k for k in range(self.SIZES[scale][0])]

    def _requests(self, ctx, unit: int):
        _, large, small = ctx.sizes
        return (
            ctx.api.SubmitHuntRequest(services=self.SERVICES,
                                      seeds=(unit, unit + 1),
                                      num_tests=large, stream=True),
            ctx.api.SubmitHuntRequest(services=self.SERVICES,
                                      seeds=(unit + 2,),
                                      num_tests=small, stream=True),
        )

    def expected_ops(self, ctx) -> int:
        return sum(len(request.services) * len(request.seeds)
                   for request in self._requests(ctx, 0))

    def run_unit(self, ctx, unit: int, probe) -> Outcome:
        requests = self._requests(ctx, unit)
        root = tempfile.mkdtemp(prefix="hunt-", dir=ctx.work)
        events: list = []

        def on_event(event) -> None:
            events.append((time.perf_counter(), event))

        try:
            server = ctx.server(root, workers=self.WORKERS,
                                on_event=on_event)
            token = server.issue_token()
            api = ctx.api
            with probe:
                hunts = [api.submit_hunt(server.handle, request,
                                         token=token)
                         for request in requests]
                server.run_pending()
                statuses = [
                    api.hunt_status(server.handle,
                                    api.HuntStatusRequest(hunt.hunt_id),
                                    token=token)
                    for hunt in hunts]
            store_bytes = _tree_bytes(Path(root) / "hunts", "store")
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return self._outcome(ctx, requests, statuses, events,
                             store_bytes)

    def _outcome(self, ctx, requests, statuses, events,
                 store_bytes) -> Outcome:
        checked = [event for _, event in events
                   if isinstance(event, ctx.checked)]
        outcome = Outcome(
            ops=self.expected_ops(ctx),
            signature="+".join(str(status.fleet_signature)
                               for status in statuses),
            counts={
                "shards": sum(status.shards_done for status in statuses),
                "tests_checked": len(checked),
                "serve.events": len(events),
                "serve.retries": sum(status.retries
                                     for status in statuses),
                "fleet.store.bytes": store_bytes,
                "stream.peak_state": max(
                    (event.state_size for event in checked), default=0),
            },
            host=_pool_figures(ctx, events, self.WORKERS),
        )
        expected_tests = sum(
            2 * request.num_tests * len(request.services)
            * len(request.seeds) for request in requests)
        for status in statuses:
            if status.status != "done" or status.retries != 0 or \
                    status.shards_done != status.shards_total:
                outcome.problems.append(
                    f"hunt {status.hunt_id} {status.status} with "
                    f"{status.shards_done}/{status.shards_total} shards, "
                    f"{status.retries} retries")
        if len(checked) != expected_tests:
            outcome.problems.append(
                f"{len(checked)} of {expected_tests} tests checked")
        return outcome


def _tree_bytes(root: Path, leaf: str) -> int:
    """Bytes of every file under ``root/*/leaf``."""
    total = 0
    for hunt in sorted(root.iterdir()):
        for folder, _, files in os.walk(hunt / leaf):
            total += sum(os.path.getsize(os.path.join(folder, name))
                         for name in files)
    return total


def _pool_figures(ctx, events, workers: int) -> dict:
    """Pool busy share and tail idle time from the hunt event feed.

    The pass starts when the last hunt turns ``running``.  Under work
    stealing a worker only idles once every queue is empty, so the
    idle worker-seconds are the tail: each of the last ``workers``
    shard completions leaves its worker idle until the final one.
    """
    started = [when for when, event in events
               if isinstance(event, ctx.state)
               and event.status == "running"]
    completions = sorted(when for when, event in events
                         if isinstance(event, ctx.completed))
    if not started or len(completions) < workers:
        return {"pool_busy_share": 0.0, "tail_idle_s": 0.0}
    end = completions[-1]
    tail_idle = sum(end - when for when in completions[-workers:])
    capacity = workers * (end - max(started))
    return {"pool_busy_share": 1.0 - tail_idle / capacity,
            "tail_idle_s": tail_idle}


WORKLOADS = {
    "campaign_gplus": CampaignWorkload("googleplus", units=2),
    "campaign_fbfeed": CampaignWorkload("facebook_feed", units=1),
    "world_gossip": WorldWorkload(),
    "hunt_mix": HuntWorkload(),
}
