"""Common vocabulary for anomaly checkers.

Each checker implements the :class:`AnomalyChecker` interface: given a
:class:`~repro.core.trace.TestTrace` it returns the list of
:class:`AnomalyObservation` instances found.  One *observation* is one
read operation that exhibits the anomaly (for divergence anomalies, one
pair of reads) — the unit the paper's per-test distribution figures
(Figs. 4–7) count.

Anomaly kinds are identified by the string constants below; analysis
code treats them as opaque keys, so adding a new anomaly means adding a
checker plus a constant, nothing else.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.trace import ReadOp, TestTrace

__all__ = [
    "READ_YOUR_WRITES",
    "MONOTONIC_WRITES",
    "MONOTONIC_READS",
    "WRITES_FOLLOW_READS",
    "CONTENT_DIVERGENCE",
    "ORDER_DIVERGENCE",
    "SESSION_ANOMALIES",
    "DIVERGENCE_ANOMALIES",
    "ALL_ANOMALIES",
    "AnomalyObservation",
    "AnomalyChecker",
]

READ_YOUR_WRITES = "read_your_writes"
MONOTONIC_WRITES = "monotonic_writes"
MONOTONIC_READS = "monotonic_reads"
WRITES_FOLLOW_READS = "writes_follow_reads"
CONTENT_DIVERGENCE = "content_divergence"
ORDER_DIVERGENCE = "order_divergence"

#: The four session-guarantee violations (§III.1).
SESSION_ANOMALIES = (
    READ_YOUR_WRITES,
    MONOTONIC_WRITES,
    MONOTONIC_READS,
    WRITES_FOLLOW_READS,
)
#: The two divergence anomalies (§III.2).
DIVERGENCE_ANOMALIES = (CONTENT_DIVERGENCE, ORDER_DIVERGENCE)
#: Everything, in the paper's presentation order.
ALL_ANOMALIES = SESSION_ANOMALIES + DIVERGENCE_ANOMALIES


@dataclass(frozen=True)
class AnomalyObservation:
    """One concrete manifestation of an anomaly in a trace.

    Attributes
    ----------
    anomaly:
        One of the anomaly-kind constants in this module.
    agent:
        The agent whose read exhibited the anomaly.  For divergence
        anomalies this is the lexicographically first agent of the pair.
    time:
        Reference-frame response time of the detecting read (for
        divergence, of the later read of the pair).
    pair:
        For divergence anomalies, the unordered agent pair involved
        (stored sorted); None for session anomalies.
    details:
        Checker-specific evidence — missing message ids, the reordered
        pair, the two observed sequences, etc.  Keys are stable per
        checker and documented in the checker's module.
    """

    anomaly: str
    agent: str
    time: float
    pair: tuple[str, str] | None = None
    details: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.pair is not None and tuple(sorted(self.pair)) != self.pair:
            object.__setattr__(self, "pair", tuple(sorted(self.pair)))


class AnomalyChecker(abc.ABC):
    """Interface every anomaly checker implements."""

    #: Anomaly-kind constant produced by this checker.
    anomaly: str = ""

    @abc.abstractmethod
    def check(self, trace: TestTrace) -> list[AnomalyObservation]:
        """Return all observations of this anomaly in ``trace``.

        Checkers are pure: they never mutate the trace, and a given
        trace always yields the same observations.
        """

    def check_with_reads(
        self, trace: TestTrace, reads: Mapping[str, Sequence[ReadOp]]
    ) -> list[AnomalyObservation]:
        """:meth:`check`, given ``trace.reads_by_agent()`` precomputed.

        :func:`~repro.core.anomalies.registry.check_all` scans the
        trace's reads once and hands the per-agent lists to every
        checker; checkers that read sessions override this to skip
        their own scan.  The default ignores ``reads``.
        """
        return self.check(trace)

    def found_in(self, trace: TestTrace) -> bool:
        """Convenience: does the anomaly occur at all in ``trace``?"""
        return bool(self.check(trace))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} anomaly={self.anomaly!r}>"
