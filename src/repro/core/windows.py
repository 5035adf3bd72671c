"""Divergence-window computation (the paper's §III.3 / §IV).

The boolean divergence anomalies say *whether* two agents' views ever
conflicted; the windows say *for how long*.  Following §IV, each agent's
view over time is a step function: at every read response the view
becomes the sequence that read returned ("as determined by the most
recent read"), with operations from different agents placed on a single
timeline using the coordinator-estimated clock deltas.

For an agent pair, a divergence window is a maximal interval during
which the anomaly predicate (content or order divergence) holds between
the two current views.  The paper's worked example is honored: a
divergence detected between reads whose views never coexisted in time
yields a zero-length window (the boolean checker fires, the window
computation finds no interval).

A pair whose views are still divergent at the last read of the test has
not converged; such runs are excluded from window CDFs but their
fraction is reported (the paper does the same for Fig. 10).

:func:`trace_windows` computes both kinds for every pair of a trace in
a single pass: each agent's timeline is built once from the trace's
per-agent read lists, each pair's merged change points are walked once,
and at each change point both predicates are looked up in a memo keyed
by the ``(view_a, view_b)`` pair, so a combination of views that
recurs (a converged state re-read) is evaluated only the first time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.core.anomalies.content_divergence import views_content_diverged
from repro.core.anomalies.order_divergence import views_order_diverged
from repro.core.trace import ReadOp, TestTrace

__all__ = [
    "ViewStep",
    "WindowResult",
    "view_timeline",
    "divergence_windows",
    "trace_windows",
    "content_divergence_windows",
    "order_divergence_windows",
]

View = tuple[str, ...]
#: Sorted agent pair.
Pair = tuple[str, str]
#: Predicate over two views, e.g. ``views_content_diverged``.
ViewPredicate = Callable[[View, View], bool]


@dataclass(frozen=True)
class ViewStep:
    """One step of an agent's view timeline: from ``time`` onward the
    agent's most recent read returned ``view``."""

    time: float
    view: tuple[str, ...]


@dataclass(frozen=True)
class WindowResult:
    """Divergence windows for one agent pair in one test.

    Attributes
    ----------
    pair:
        The (sorted) agent pair analyzed.
    intervals:
        Maximal [start, end) intervals during which the predicate held.
        The final interval of an unconverged pair ends at the last
        observation time.
    converged:
        False if the views were still divergent at the end of the test.
    """

    pair: tuple[str, str]
    intervals: tuple[tuple[float, float], ...]
    converged: bool

    @property
    def diverged(self) -> bool:
        """True if the predicate held during any interval."""
        return bool(self.intervals)

    @property
    def largest(self) -> float | None:
        """Duration of the largest window (None if never diverged).

        The paper's Figure 9 uses "only ... the largest divergence
        window for each pair of agents in each test".
        """
        if not self.intervals:
            return None
        return max(end - start for start, end in self.intervals)

    @property
    def total(self) -> float:
        """Summed duration of all windows."""
        return sum(end - start for start, end in self.intervals)


def view_timeline(trace: TestTrace, agent: str) -> list[ViewStep]:
    """``agent``'s view step function on the reference timeline.

    Before its first read an agent has the empty view.
    """
    return _timeline(trace, trace.reads_by(agent))


def _timeline(trace: TestTrace,
              reads: Sequence[ReadOp]) -> list[ViewStep]:
    steps = [ViewStep(float("-inf"), ())]
    steps.extend(ViewStep(trace.corrected_response(read), read.observed)
                 for read in reads)
    return steps


def divergence_windows(trace: TestTrace, agent_a: str, agent_b: str,
                       predicate: ViewPredicate) -> WindowResult:
    """Compute the windows where ``predicate`` holds between two views."""
    pair = tuple(sorted((agent_a, agent_b)))
    return _pair_windows(
        view_timeline(trace, pair[0]), view_timeline(trace, pair[1]),
        pair, (predicate,),
    )[0]


def _pair_windows(timeline_a: list[ViewStep],
                  timeline_b: list[ViewStep], pair: Pair,
                  predicates: Sequence[ViewPredicate]
                  ) -> tuple[WindowResult, ...]:
    """Windows of each of ``predicates`` for one pair, in one walk.

    ``timeline_a`` and ``timeline_b`` are the :func:`view_timeline` of
    ``pair[0]`` and ``pair[1]``.  The predicates are evaluated once per
    distinct ``(view_a, view_b)`` combination, however many change
    points show it.
    """
    # Merge the two step functions into a single sequence of change
    # points; between consecutive change points both views are constant.
    change_points = sorted(
        {step.time for step in timeline_a[1:]}
        | {step.time for step in timeline_b[1:]}
    )
    verdicts: dict[tuple[View, View], tuple[bool, ...]] = {}
    starts: list[float | None] = [None] * len(predicates)
    intervals: list[list[tuple[float, float]]] = [
        [] for _ in predicates
    ]
    index_a = index_b = 0
    for time in change_points:
        index_a = _advance(timeline_a, index_a, time)
        index_b = _advance(timeline_b, index_b, time)
        views = (timeline_a[index_a].view, timeline_b[index_b].view)
        held = verdicts.get(views)
        if held is None:
            held = verdicts[views] = tuple(
                predicate(*views) for predicate in predicates
            )
        for k, diverged in enumerate(held):
            if diverged and starts[k] is None:
                starts[k] = time
            elif not diverged and starts[k] is not None:
                intervals[k].append((starts[k], time))
                starts[k] = None

    results = []
    for start, closed in zip(starts, intervals):
        if start is not None:
            # Still divergent at the last observation: close the
            # interval at the end of the trace so `total`/`largest`
            # stay meaningful, but flag the pair as unconverged.
            closed.append((start, change_points[-1]))
        results.append(WindowResult(
            pair=pair, intervals=tuple(closed), converged=start is None
        ))
    return tuple(results)


def trace_windows(
    trace: TestTrace,
    reads: Mapping[str, Sequence[ReadOp]] | None = None,
) -> tuple[dict[Pair, WindowResult], dict[Pair, WindowResult]]:
    """Content and order windows of every agent pair (Figs. 9 and 10).

    Each agent's timeline is built once, from ``reads``
    (``trace.reads_by_agent()``, built here when not given), and each
    pair's change points are walked once for both predicates.  Both
    mappings are keyed by sorted pair, in ``trace.agent_pairs()`` order.
    """
    if reads is None:
        reads = trace.reads_by_agent()
    timelines = {agent: _timeline(trace, reads.get(agent, ()))
                 for agent in trace.agents}
    content: dict[Pair, WindowResult] = {}
    order: dict[Pair, WindowResult] = {}
    for first, second in trace.agent_pairs():
        pair = tuple(sorted((first, second)))
        content[pair], order[pair] = _pair_windows(
            timelines[pair[0]], timelines[pair[1]], pair,
            (views_content_diverged, views_order_diverged),
        )
    return content, order


def _advance(timeline: list[ViewStep], index: int, time: float) -> int:
    """Largest step index whose time is <= ``time``, starting at ``index``."""
    while (index + 1 < len(timeline)
           and timeline[index + 1].time <= time):
        index += 1
    return index


def content_divergence_windows(trace: TestTrace, agent_a: str,
                               agent_b: str) -> WindowResult:
    """Content-divergence windows for one pair (paper Fig. 9)."""
    return divergence_windows(
        trace, agent_a, agent_b, views_content_diverged
    )


def order_divergence_windows(trace: TestTrace, agent_a: str,
                             agent_b: str) -> WindowResult:
    """Order-divergence windows for one pair (paper Fig. 10)."""
    return divergence_windows(
        trace, agent_a, agent_b, views_order_diverged
    )
