"""CI gate: a hunt through the campaign service == a direct fleet run.

Drives the full serving stack in-process — submit a hunt over the
``/v1`` API, drain its JSONL event feed in follow-mode (the poll hook
runs the scheduling passes on a 2-worker pool), then compare the
result against a direct ``run_fleet`` of the same spec:

* merged ``fleet_signature`` identical;
* artifact stores byte-identical, file for file;
* the event feed is complete and ordered (strictly monotonic ``seq``,
  one ``shard.completed`` per shard, terminal ``hunt.state``);
* a second scheduling pass over the finished hunt executes nothing;
* a streaming hunt on the same 2-worker pool writes an artifact store,
  archived ``traces/*.ops.jsonl`` operation streams included,
  byte-identical to a streaming 2-worker ``run_fleet``, and its feed
  carries exactly one ``test.checked`` per test.

    python tools/serve_parity_check.py [num_tests] [seed]

Exit code 0 on parity, 1 with a diagnostic on any mismatch.
"""

import sys
import tempfile
from pathlib import Path

from repro.api import SubmitHuntRequest, submit_hunt
from repro.fleet import run_fleet
from repro.serve import HuntServer, HuntSpec, follow_events

__all__ = ["artifact_files", "check_stream_hunt", "main"]

SERVICES = ("blogger", "googleplus")


def artifact_files(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def compare_artifacts(served, expected, failures, label=""):
    if set(served) != set(expected):
        failures.append(
            f"{label}artifact listing mismatch: "
            f"only-served={sorted(set(served) - set(expected))} "
            f"only-direct={sorted(set(expected) - set(served))}"
        )
        return
    differing = [name for name in sorted(expected)
                 if served[name] != expected[name]]
    if differing:
        failures.append(f"{label}artifact bytes differ: {differing}")


def check_stream_hunt(root, spec, failures):
    """A streaming hunt on 2 workers == a streaming 2-worker fleet.

    Returns the number of ``test.checked`` events the feed carried.
    """
    server = HuntServer(root / "serve-stream", workers=2)
    token = server.issue_token()
    submitted = submit_hunt(server.handle, SubmitHuntRequest(
        services=spec.services, seeds=spec.seeds,
        num_tests=spec.num_tests, test_types=spec.test_types,
        stream=True,
    ), token=token)
    events = list(follow_events(server, submitted.hunt_id, token,
                                poll=server.run_pending))
    direct = run_fleet(spec.fleet_spec(), stream=True, jobs=2,
                       out_dir=root / "direct-stream")
    state = server.service.hunt(submitted.hunt_id)
    if state.status != "done":
        failures.append(
            f"stream hunt ended {state.status!r}: {state.error}"
        )

    expected = artifact_files(root / "direct-stream")
    traces = [name for name in expected
              if name.startswith("traces") and
              name.endswith(".ops.jsonl")]
    if len(traces) != spec.total_shards:
        failures.append(
            f"direct stream fleet archived {len(traces)} operation "
            f"streams, expected {spec.total_shards}"
        )
    compare_artifacts(
        artifact_files(server.service.store.artifact_root(
            submitted.hunt_id)),
        expected, failures, label="stream hunt: ",
    )

    tests = sorted((job.shard_id, record.test_id)
                   for job, result in zip(direct.jobs, direct.results)
                   for record in result.records)
    checked = sorted((event["shard_id"], event["test_id"])
                     for event in events
                     if event["event"] == "test.checked")
    if checked != tests:
        failures.append(
            f"stream feed reported {len(checked)} test.checked events "
            f"for {len(tests)} tests (one per test expected)"
        )
    return len(checked)


def main():
    args = sys.argv[1:]
    num_tests = int(args[0]) if args else 4
    seed = int(args[1]) if len(args) > 1 else 11
    spec = HuntSpec(services=SERVICES, seeds=(seed, seed + 1),
                    num_tests=num_tests, test_types=("test1",))
    failures = []

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        server = HuntServer(root / "serve", workers=2)
        token = server.issue_token()
        submitted = submit_hunt(server.handle, SubmitHuntRequest(
            services=spec.services, seeds=spec.seeds,
            num_tests=spec.num_tests, test_types=spec.test_types,
        ), token=token)

        events = list(follow_events(server, submitted.hunt_id, token,
                                    poll=server.run_pending))

        direct = run_fleet(spec.fleet_spec(), jobs=1,
                           out_dir=root / "direct")
        state = server.service.hunt(submitted.hunt_id)

        if state.status != "done":
            failures.append(
                f"hunt ended {state.status!r}: {state.error}"
            )
        if state.fleet_signature != direct.signature():
            failures.append(
                f"signature mismatch: direct {direct.signature()} "
                f"!= hunt {state.fleet_signature}"
            )

        served = artifact_files(
            server.service.store.artifact_root(submitted.hunt_id)
        )
        expected = artifact_files(root / "direct")
        compare_artifacts(served, expected, failures)

        seqs = [event["seq"] for event in events]
        if seqs != sorted(set(seqs)):
            failures.append(f"event seq not monotonic: {seqs}")
        completed = [event for event in events
                     if event["event"] == "shard.completed"]
        if len(completed) != spec.total_shards:
            failures.append(
                f"feed reported {len(completed)} shard completions, "
                f"expected {spec.total_shards}"
            )
        if not events or events[-1]["event"] != "hunt.state" or \
                events[-1]["status"] != "done":
            failures.append(
                f"feed did not end in a terminal hunt.state: "
                f"{events[-1] if events else 'empty feed'}"
            )

        rerun = server.run_pending()
        if rerun:
            failures.append(
                f"pass over a finished hunt ran again: {rerun}"
            )

        checked = check_stream_hunt(root, spec, failures)

    shards = spec.total_shards
    if failures:
        print(f"serve parity check FAILED ({shards} shards):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"serve parity check passed: {shards} shards via the hunt "
          f"API == direct fleet run "
          f"(signature {direct.signature()[:16]}), "
          f"{len(events)} feed events, artifacts byte-identical; "
          f"streaming 2-worker hunt == streaming fleet with traces, "
          f"{checked} test.checked events")
    return 0


if __name__ == "__main__":
    sys.exit(main())
