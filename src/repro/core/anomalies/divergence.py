"""Distinct-view kernel shared by both divergence checkers.

Both §III.2 divergence predicates depend only on the two *views*
compared, never on which read returned them.  So instead of comparing
every read of one agent with every read of the other, the kernel
groups each agent's reads by observed view and evaluates the predicate
once per pair of distinct views.  Real traces re-read a converged
state most of the time, so distinct views are far fewer than reads: a
Google+ campaign has ~110x fewer distinct-view pairs than read pairs.

The result is exactly the read-pair result:

* ``divergent_read_pairs`` — a divergent view pair stands for
  ``left multiplicity x right multiplicity`` read pairs;
* ``example`` — the read-pair scan reports the first divergent pair in
  left-major order, the minimum ``(left read index, right read
  index)``.  A view pair's smallest read pair is the first occurrence
  of each view, so the example comes from the divergent view pair with
  the smallest ``(left first_index, right first_index)``;
* detecting read — of that example pair, the read with the larger
  local response instant (the left one on ties).

:class:`DivergenceChecker` runs the kernel over whole read logs (the
batch checkers); the streaming checkers
(:mod:`repro.stream.divergence`) feed the same :class:`PairTally` one
read at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.core.anomalies.base import AnomalyChecker, AnomalyObservation
from repro.core.trace import ReadOp, TestTrace

__all__ = ["ViewRecord", "PairTally", "distinct_views", "DivergenceChecker"]

View = tuple[str, ...]


@dataclass(eq=False)
class ViewRecord:
    """One distinct observed view in one agent's read log."""

    view: View
    #: Index of the view's first read in the agent's session order.
    first_index: int
    first_read: ReadOp
    multiplicity: int = 1


def distinct_views(reads: Sequence[ReadOp]) -> list[ViewRecord]:
    """``reads`` grouped by observed view, in first-occurrence order."""
    records: dict[View, ViewRecord] = {}
    for index, read in enumerate(reads):
        record = records.get(read.observed)
        if record is None:
            records[read.observed] = ViewRecord(read.observed, index, read)
        else:
            record.multiplicity += 1
    return list(records.values())


@dataclass
class PairTally:
    """Divergence of one agent pair: read-pair count and example."""

    count: int = 0
    #: The example view pair (the left and right agent's records).
    example_left: ViewRecord | None = None
    example_right: ViewRecord | None = None

    def add(self, left: ViewRecord, right: ViewRecord) -> None:
        """Count a divergent view pair at its current multiplicities,
        keeping the earliest view pair as the example."""
        self.count += left.multiplicity * right.multiplicity
        if self.example_left is None or self.example_right is None or (
            (left.first_index, right.first_index)
            < (self.example_left.first_index,
               self.example_right.first_index)
        ):
            self.example_left, self.example_right = left, right

    def detecting_read(self) -> ReadOp:
        """The example pair's read with the later local response."""
        assert self.example_left is not None
        assert self.example_right is not None
        left = self.example_left.first_read
        right = self.example_right.first_read
        return (left if left.response_local >= right.response_local
                else right)


class DivergenceChecker(AnomalyChecker):
    """One observation per agent pair whose views ever diverged.

    Subclasses supply the predicate (``diverged``) and the evidence
    recorded for the example view pair (``example``).
    """

    #: The §III.2 predicate on a (left view, right view) pair.
    diverged: Callable[[View, View], bool]
    #: The ``example`` evidence for a divergent view pair.
    example: Callable[[View, View], dict]

    def check(self, trace: TestTrace) -> list[AnomalyObservation]:
        return self.check_with_reads(trace, trace.reads_by_agent())

    def check_with_reads(
        self, trace: TestTrace, reads: Mapping[str, Sequence[ReadOp]]
    ) -> list[AnomalyObservation]:
        observations: list[AnomalyObservation] = []
        for first, second in trace.agent_pairs():
            left, right = sorted((first, second))
            tally = self._check_pair(reads.get(left, ()),
                                     reads.get(right, ()))
            if tally.count:
                observations.append(self.observation(
                    (left, right), tally, trace.corrected_response
                ))
        return observations

    def _check_pair(self, left_reads: Sequence[ReadOp],
                    right_reads: Sequence[ReadOp]) -> PairTally:
        """Tally divergent read pairs, one predicate call per view pair."""
        tally = PairTally()
        right_views = distinct_views(right_reads)
        for left in distinct_views(left_reads):
            for right in right_views:
                if self.diverged(left.view, right.view):
                    tally.add(left, right)
        return tally

    def observation(self, pair: tuple[str, str], tally: PairTally,
                    time_of: Callable[[ReadOp], float]
                    ) -> AnomalyObservation:
        """The pair's observation; ``time_of`` corrects a read's
        response instant to the reference frame."""
        assert tally.example_left is not None
        assert tally.example_right is not None
        return AnomalyObservation(
            anomaly=self.anomaly,
            agent=pair[0],
            time=time_of(tally.detecting_read()),
            pair=pair,
            details={
                "divergent_read_pairs": tally.count,
                "example": self.example(tally.example_left.view,
                                        tally.example_right.view),
            },
        )
