"""Writes Follow Reads checker.

Paper definition (§III.1): with ``S1`` a sequence returned by a read of
client ``c``, ``w`` a write performed by ``c`` after observing ``S1``,
and ``S2`` a sequence returned by a read issued by *any* client, a
*Writes Follow Reads* anomaly happens when::

    w ∈ S2 ∧ ∃ x ∈ S1 : x ∉ S2

i.e. someone sees the reaction without the message it reacted to.

Dependency derivation
---------------------
The predicate needs to know which messages a write "follows".  Two
modes, chosen by the trace (see
:meth:`repro.core.trace.TestTrace.dependencies_of`):

* **Trigger mode** (the paper's Test 1): the test design designates
  explicit causal pairs — M3 follows M2, M5 follows M4 — because those
  are the only writes issued *in reaction to* an observation.  This
  avoids false positives from incidental co-observation.
* **Generic mode**: a write depends on everything its author observed
  in reads completed before the write's invocation — the literal
  reading of the definition.

One observation is recorded per (read, dependent-write) combination
where the write is visible but a dependency is missing.  ``details``
keys:

* ``write`` — the visible dependent message id.
* ``missing_dependencies`` — its absent causal predecessors (sorted).
* ``observed`` — the sequence the read returned.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.anomalies.base import (
    WRITES_FOLLOW_READS,
    AnomalyChecker,
    AnomalyObservation,
)
from repro.core.trace import ReadOp, TestTrace

__all__ = ["WritesFollowReadsChecker"]


class WritesFollowReadsChecker(AnomalyChecker):
    """Detects reactions visible without the messages they followed."""

    anomaly = WRITES_FOLLOW_READS

    def check(self, trace: TestTrace) -> list[AnomalyObservation]:
        return self.check_with_reads(trace, trace.reads_by_agent())

    def check_with_reads(
        self, trace: TestTrace, reads: Mapping[str, Sequence[ReadOp]]
    ) -> list[AnomalyObservation]:
        dependencies = {
            write.message_id: trace.dependencies_of(
                write, reads.get(write.agent, ())
            )
            for write in trace.writes()
        }
        dependent_ids = {mid for mid, deps in dependencies.items() if deps}
        if not dependent_ids:
            return []

        observations: list[AnomalyObservation] = []
        for read in trace.reads():
            visible = set(read.observed)
            for message_id in read.observed:
                deps = dependencies.get(message_id)
                if not deps:
                    continue
                missing = deps - visible
                if missing:
                    observations.append(AnomalyObservation(
                        anomaly=self.anomaly,
                        agent=read.agent,
                        time=trace.corrected_response(read),
                        details={
                            "write": message_id,
                            "missing_dependencies": tuple(sorted(missing)),
                            "observed": read.observed,
                        },
                    ))
        return observations
