"""Read Your Writes checker.

Paper definition (§III.1): with ``W`` the set of writes completed by a
client ``c`` at a given instant and ``S`` the sequence returned by a
subsequent read of ``c``, a *Read Your Writes* anomaly happens when::

    ∃ x ∈ W : x ∉ S

Operationally we treat "at a given instant" as: every write by ``c``
whose *response* arrived before the read's *invocation* on ``c``'s own
clock (both sides of the comparison use the same clock, so skew is
irrelevant here).  Writes still in flight when the read was issued are
excluded — a service cannot be blamed for not reflecting a write it has
not acknowledged.

One observation is recorded per read that misses at least one of the
reader's own completed writes.  ``details`` keys:

* ``missing`` — tuple of the reader's own message ids absent from the
  read, in session order.
* ``observed`` — the sequence the read returned.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.anomalies.base import (
    READ_YOUR_WRITES,
    AnomalyChecker,
    AnomalyObservation,
)
from repro.core.trace import ReadOp, TestTrace

__all__ = ["ReadYourWritesChecker"]


class ReadYourWritesChecker(AnomalyChecker):
    """Detects reads that miss the reader's own completed writes."""

    anomaly = READ_YOUR_WRITES

    def check(self, trace: TestTrace) -> list[AnomalyObservation]:
        return self.check_with_reads(trace, trace.reads_by_agent())

    def check_with_reads(
        self, trace: TestTrace, reads: Mapping[str, Sequence[ReadOp]]
    ) -> list[AnomalyObservation]:
        observations: list[AnomalyObservation] = []
        for agent in trace.agents:
            writes = trace.writes_by(agent)
            if not writes:
                continue
            for read in reads.get(agent, ()):
                completed = [w for w in writes
                             if w.response_local <= read.invoke_local]
                missing = tuple(w.message_id for w in completed
                                if not read.saw(w.message_id))
                if missing:
                    observations.append(AnomalyObservation(
                        anomaly=self.anomaly,
                        agent=agent,
                        time=trace.corrected_response(read),
                        details={
                            "missing": missing,
                            "observed": read.observed,
                        },
                    ))
        return observations
