"""Monotonic Reads checker.

Paper definition (§III.1): a *Monotonic Reads* anomaly happens when a
client ``c`` issues two reads returning ``S1`` then ``S2`` and::

    ∃ x ∈ S1 : x ∉ S2

i.e. a write the client already observed later disappears from its
view.  The subtlety versus monotonic writes (called out in the paper)
is that the missing write must have been *returned by a previous read*
of the same client, not merely issued.

Checking every ordered pair of reads is quadratic; we use the standard
equivalent linear form: walk the session's reads in order, maintaining
the set of everything observed so far, and flag a read that misses any
previously-observed message.  (If ``x ∈ S1`` and ``x ∉ S2`` for *some*
earlier ``S1``, then ``x`` is in the running union and missing now, and
vice versa.)

One observation is recorded per read that loses at least one
previously-seen message.  ``details`` keys:

* ``missing`` — previously-observed message ids absent from this read
  (sorted).
* ``observed`` — the sequence the read returned.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.anomalies.base import (
    MONOTONIC_READS,
    AnomalyChecker,
    AnomalyObservation,
)
from repro.core.trace import ReadOp, TestTrace

__all__ = ["MonotonicReadsChecker"]


class MonotonicReadsChecker(AnomalyChecker):
    """Detects messages vanishing between successive reads of a session."""

    anomaly = MONOTONIC_READS

    def check(self, trace: TestTrace) -> list[AnomalyObservation]:
        return self.check_with_reads(trace, trace.reads_by_agent())

    def check_with_reads(
        self, trace: TestTrace, reads: Mapping[str, Sequence[ReadOp]]
    ) -> list[AnomalyObservation]:
        observations: list[AnomalyObservation] = []
        for agent in trace.agents:
            seen_so_far: set[str] = set()
            for read in reads.get(agent, ()):
                missing = seen_so_far.difference(read.observed)
                if missing:
                    observations.append(AnomalyObservation(
                        anomaly=self.anomaly,
                        agent=agent,
                        time=trace.corrected_response(read),
                        details={
                            "missing": tuple(sorted(missing)),
                            "observed": read.observed,
                        },
                    ))
                seen_so_far.update(read.observed)
        return observations
