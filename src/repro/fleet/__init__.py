"""Deterministic parallel campaign execution (the fleet engine).

The paper's credibility rests on ~1,000 test instances per service per
template; this package is how the reproduction runs that scale.  A
:class:`FleetSpec` expands replicates, parameter sweeps, and service
matrices into independent shard jobs — each a pure function of
``(service, config, seed)`` — and :func:`run_fleet` executes them on
the worker pool of :mod:`repro.fleet.pool` (shared with the campaign
service's hunts), whose merged output is bit-identical to the serial
path (the :func:`fleet_signature` golden digest is the enforced
contract).  Completed shards persist through an :class:`ArtifactStore`
and a re-invocation resumes, skipping every digest-valid shard.

See ``docs/fleet.md`` for the job model, the determinism guarantee,
the store layout, and resume semantics.

Quickstart::

    from repro.fleet import FleetSpec, run_fleet
    from repro.methodology import CampaignConfig

    spec = FleetSpec(services=("googleplus", "blogger"),
                     base_config=CampaignConfig(num_tests=100),
                     seeds=(1, 2, 3))
    outcome = run_fleet(spec, jobs=4, out_dir="campaign-artifacts")
    for job, result in zip(outcome.jobs, outcome.results):
        print(job.service, job.seed, result.summary())
"""

from repro.fleet.digest import (
    campaign_signature,
    canonical_json,
    fleet_signature,
    records_digest,
)
from repro.fleet.executor import (
    DEFAULT_MAX_RETRIES,
    FleetOutcome,
    execute_shard,
    run_fleet,
)
from repro.fleet.spec import FleetSpec, ShardJob, derive_fleet_seeds
from repro.fleet.store import ArtifactStore, STORE_VERSION
from repro.obs.events import (
    EventCallback,
    FleetCompleted,
    FleetEvent,
    FleetStarted,
    ShardCompleted,
    ShardEvent,
    ShardRetried,
    ShardSkipped,
    ShardStarted,
    ShardTestChecked,
    render_event,
)

__all__ = [
    "FleetSpec",
    "ShardJob",
    "derive_fleet_seeds",
    "run_fleet",
    "execute_shard",
    "FleetOutcome",
    "DEFAULT_MAX_RETRIES",
    "ArtifactStore",
    "STORE_VERSION",
    "fleet_signature",
    "campaign_signature",
    "records_digest",
    "canonical_json",
    "FleetEvent",
    "FleetStarted",
    "FleetCompleted",
    "ShardEvent",
    "ShardStarted",
    "ShardTestChecked",
    "ShardCompleted",
    "ShardRetried",
    "ShardSkipped",
    "EventCallback",
    "render_event",
]
