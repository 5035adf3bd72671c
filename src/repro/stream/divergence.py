"""Streaming divergence checkers (content and order), online.

Both predicates depend only on the *views*, not on which read returned
them, so these checkers share the batch checkers' distinct-view kernel
(:mod:`repro.core.anomalies.divergence`, which documents how count,
example and detecting read follow from it).  Per agent (per pair side)
they keep one :class:`ViewRecord` per **distinct view**, with its
multiplicity and first read.  A new distinct view is compared against
the other side's distinct views as it arrives and counted through the
kernel's :class:`PairTally`; a repeated view just bumps its
multiplicity, and the pair count grows by the multiplicity sum of the
partner views it diverges from.  A view pair's example candidate is
fixed when the *later* first occurrence arrives, so repeats can never
displace the example.  Real traces re-read a converged state most of
the time, so distinct views — and therefore state and work — stay far
below read counts.

``observe`` never emits: a divergence observation summarizes a whole
pair for a whole test (at most one per pair), so it only exists at
``close_test``.  Live divergence *onset* telemetry comes from the
window tracker (:mod:`repro.stream.windows`) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.anomalies.base import (
    CONTENT_DIVERGENCE,
    ORDER_DIVERGENCE,
    AnomalyObservation,
)
from repro.core.anomalies.content_divergence import (
    ContentDivergenceChecker,
)
from repro.core.anomalies.divergence import (
    DivergenceChecker,
    PairTally,
    ViewRecord,
)
from repro.core.anomalies.order_divergence import OrderDivergenceChecker
from repro.core.trace import ReadOp
from repro.stream.base import StreamingChecker, StreamOp, TestMeta

__all__ = [
    "StreamingContentDivergenceChecker",
    "StreamingOrderDivergenceChecker",
]


@dataclass(eq=False)
class _ViewRecord(ViewRecord):
    """A distinct view on one side of an agent pair, with its links."""

    #: records of partner views this view diverges from.
    divergent_with: list["_ViewRecord"] = field(default_factory=list)


@dataclass(kw_only=True)
class _PairState(PairTally):
    """Divergence state for one unordered agent pair in one test: the
    pair's tally plus each side's distinct views."""

    left: str
    right: str
    #: view -> record, insertion-ordered (= first-occurrence order).
    left_views: dict[tuple[str, ...], _ViewRecord] = field(
        default_factory=dict
    )
    right_views: dict[tuple[str, ...], _ViewRecord] = field(
        default_factory=dict
    )


class _StreamingPairwiseChecker(StreamingChecker):
    """Shared machinery for both divergence checkers."""

    #: The batch checker whose predicate, example and observation
    #: this streaming checker reuses.
    batch: DivergenceChecker

    def __init__(self) -> None:
        #: test_id -> [(pair state, ...)] in agent_pairs order.
        self._pairs: dict[str, list[_PairState]] = {}
        #: test_id -> agent -> number of reads seen (reads_by index).
        self._read_counts: dict[str, dict[str, int]] = {}

    def open_test(self, meta: TestMeta) -> None:
        self._pairs[meta.test_id] = [
            _PairState(left=min(first, second), right=max(first, second))
            for first, second in meta.agent_pairs()
        ]
        self._read_counts[meta.test_id] = {
            agent: 0 for agent in meta.agents
        }

    def observe(self, meta: TestMeta,
                sop: StreamOp) -> list[AnomalyObservation]:
        op = sop.op
        if not isinstance(op, ReadOp):
            return []
        counts = self._read_counts[meta.test_id]
        index = counts[op.agent]
        counts[op.agent] = index + 1
        for state in self._pairs[meta.test_id]:
            if op.agent == state.left:
                self._ingest(state, index, op, left_side=True)
            elif op.agent == state.right:
                self._ingest(state, index, op, left_side=False)
        return []

    def _ingest(self, state: _PairState, index: int, op: ReadOp,
                left_side: bool) -> None:
        own = state.left_views if left_side else state.right_views
        partner = state.right_views if left_side else state.left_views
        record = own.get(op.observed)
        if record is not None:
            record.multiplicity += 1
            state.count += sum(p.multiplicity
                               for p in record.divergent_with)
            return
        record = _ViewRecord(op.observed, index, op)
        own[op.observed] = record
        diverged = self.batch.diverged
        for other in partner.values():
            left_rec = record if left_side else other
            right_rec = other if left_side else record
            if not diverged(left_rec.view, right_rec.view):
                continue
            record.divergent_with.append(other)
            other.divergent_with.append(record)
            state.add(left_rec, right_rec)

    def close_test(self, meta: TestMeta) -> list[AnomalyObservation]:
        self._read_counts.pop(meta.test_id, None)

        def time_of(read: ReadOp) -> float:
            return meta.corrected(read.agent, read.response_local)

        return [
            self.batch.observation((state.left, state.right), state,
                                   time_of)
            for state in self._pairs.pop(meta.test_id)
            if state.count
        ]

    def state_size(self) -> int:
        total = 0
        for states in self._pairs.values():
            for state in states:
                total += len(state.left_views)
                total += len(state.right_views)
                total += sum(len(r.divergent_with)
                             for r in state.left_views.values())
        total += sum(len(counts)
                     for counts in self._read_counts.values())
        return total


class StreamingContentDivergenceChecker(_StreamingPairwiseChecker):
    """Cross-missing writes between two agents' views, online."""

    anomaly = CONTENT_DIVERGENCE
    batch = ContentDivergenceChecker()


class StreamingOrderDivergenceChecker(_StreamingPairwiseChecker):
    """Inverted relative orders between two agents' views, online."""

    anomaly = ORDER_DIVERGENCE
    batch = OrderDivergenceChecker()
