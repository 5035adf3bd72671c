"""CI gate: the streaming engine must be bit-identical to batch.

Three escalating checks:

1. **Trace parity** — every trace of a kept-traces campaign of each
   of ``TRACE_SERVICES`` passes :func:`repro.stream.verify_trace`:
   all six streaming checkers, both window trackers, and the distilled
   record agree with the batch pipeline element for element.
2. **Fleet parity** — the same replicate fleet run in batch mode,
   streaming serial, and streaming on two workers produces one
   golden-signature digest.
3. **Archive replay** — the per-shard ``*.ops.jsonl`` trace-event
   files the streaming fleet wrote, replayed standalone through
   :class:`~repro.stream.ingest.OpIngest`, reproduce the stored shard
   record files byte for byte.

    python tools/stream_parity_check.py [num_tests] [seed]

Exit code 0 on parity, 1 with a diagnostic on any mismatch.
"""

import sys
import tempfile

from repro.fleet import ArtifactStore, FleetSpec, run_fleet
from repro.fleet.digest import canonical_json
from repro.io import iter_trace_events, record_to_dict
from repro.methodology import CampaignConfig, run_campaign
from repro.stream import OpIngest, verify_trace
from repro.stream.ingest import feed_events

__all__ = ["check_trace_parity", "replay_shard", "check_fleet_parity", "main"]

SERVICES = ("blogger", "googleplus")
#: Services whose kept traces go through trace parity.  Google+ and
#: Facebook Feed re-read the same views many times, which is the case
#: the distinct-view divergence kernel compresses.
TRACE_SERVICES = ("blogger", "googleplus", "facebook_feed")


def check_trace_parity(num_tests, seed, failures):
    checked = 0
    for service in TRACE_SERVICES:
        result = run_campaign(service, CampaignConfig(
            num_tests=num_tests, seed=seed, keep_traces=True,
        ))
        for record in result.records:
            mismatches = verify_trace(record.trace)
            checked += 1
            for mismatch in mismatches:
                failures.append(
                    f"{service} {record.test_id}: {mismatch}"
                )
    return checked


def replay_shard(store, shard_id):
    """Stored ops replayed through a fresh ingest, as record lines."""
    records = []
    ingest = OpIngest(on_record=lambda meta, rec: records.append(rec))
    with store.trace_path(shard_id).open(encoding="utf-8") as handle:
        for _ in feed_events(iter_trace_events(handle), ingest):
            pass
    return [canonical_json(record_to_dict(rec)) for rec in records]


def check_fleet_parity(num_tests, seed, failures):
    spec = FleetSpec(
        services=SERVICES,
        base_config=CampaignConfig(num_tests=num_tests, seed=seed,
                                   test_types=("test1",)),
        seeds=(seed, seed + 1),
    )
    batch = run_fleet(spec)
    serial = run_fleet(spec, stream=True)
    if serial.signature() != batch.signature():
        failures.append(
            f"signature mismatch: batch {batch.signature()} "
            f"!= streaming serial {serial.signature()}"
        )
    with tempfile.TemporaryDirectory() as out_dir:
        parallel = run_fleet(spec, jobs=2, out_dir=out_dir,
                             stream=True)
        if parallel.signature() != batch.signature():
            failures.append(
                f"signature mismatch: batch {batch.signature()} "
                f"!= streaming 2-worker {parallel.signature()}"
            )
        store = ArtifactStore(out_dir)
        shard_ids = store.completed_shards()
        if len(shard_ids) != spec.total_shards:
            failures.append(
                f"streaming fleet completed {len(shard_ids)}/"
                f"{spec.total_shards} shards"
            )
        for shard_id in shard_ids:
            stored = store.shard_path(shard_id).read_text(
                encoding="utf-8"
            ).splitlines()
            replayed = replay_shard(store, shard_id)
            if replayed != stored:
                failures.append(
                    f"shard {shard_id}: ops-archive replay diverges "
                    f"from stored records "
                    f"({len(replayed)} vs {len(stored)} lines)"
                )
    return spec.total_shards, batch.signature()


def main():
    args = sys.argv[1:]
    num_tests = int(args[0]) if args else 4
    seed = int(args[1]) if len(args) > 1 else 11

    failures = []
    traces = check_trace_parity(num_tests, seed, failures)
    shards, signature = check_fleet_parity(num_tests, seed, failures)

    if failures:
        print(f"stream parity check FAILED ({traces} traces, "
              f"{shards} shards):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"stream parity check passed: {traces} traces verified, "
          f"batch == streaming serial == streaming 2-worker over "
          f"{shards} shards (signature {signature[:16]}), "
          "ops archives replay byte-identically")
    return 0


if __name__ == "__main__":
    sys.exit(main())
