"""Oracle for the distinct-view divergence kernel.

The divergence checkers and windows evaluate each predicate once per
*distinct view pair* (:mod:`repro.core.anomalies.divergence`,
:func:`repro.core.windows.trace_windows`).  The batch and streaming
checkers share that kernel, so batch == streaming parity cannot catch
a kernel bug.  This module keeps the direct transcriptions — every read
of one agent against every read of the other, and one walk per
predicate over the merged view timelines — as test-only reference
code, and asserts that the kernel reproduces every observation and
every :class:`~repro.core.windows.WindowResult` exactly.
"""

import pytest

from repro.core.anomalies import (
    CONTENT_DIVERGENCE,
    ORDER_DIVERGENCE,
    AnomalyObservation,
    ContentDivergenceChecker,
    OrderDivergenceChecker,
    check_all,
    first_inversion,
)
from repro.core.windows import (
    WindowResult,
    content_divergence_windows,
    order_divergence_windows,
    trace_windows,
)
from repro.methodology import CampaignConfig, run_campaign
from repro.sim.random_source import RandomSource
from repro.stream import (
    StreamingContentDivergenceChecker,
    StreamingOrderDivergenceChecker,
    TestMeta,
    stream_order,
)
from tests.helpers import make_trace, read, write
from tests.test_stream_parity import random_trace

AGENTS = ("oregon", "tokyo", "ireland")


# -- Reference transcriptions ---------------------------------------------

def _reference_content_pair(left_reads, right_reads):
    """Every left read against every right read (content)."""
    count = 0
    example = detecting_read = None
    for left_read in left_reads:
        for right_read in right_reads:
            left_set = set(left_read.observed)
            right_set = set(right_read.observed)
            left_only = left_set - right_set
            right_only = right_set - left_set
            if not (left_only and right_only):
                continue
            count += 1
            if example is None:
                example = {
                    "left_only": tuple(sorted(left_only)),
                    "right_only": tuple(sorted(right_only)),
                    "left_observed": left_read.observed,
                    "right_observed": right_read.observed,
                }
                detecting_read = (
                    left_read
                    if left_read.response_local >=
                    right_read.response_local
                    else right_read
                )
    return count, example, detecting_read


def _reference_order_pair(left_reads, right_reads):
    """Every left read against every right read (order)."""
    count = 0
    example = detecting_read = None
    for left_read in left_reads:
        for right_read in right_reads:
            inversion = first_inversion(left_read.observed,
                                        right_read.observed)
            if inversion is None:
                continue
            count += 1
            if example is None:
                example = {
                    "inverted": inversion,
                    "left_observed": left_read.observed,
                    "right_observed": right_read.observed,
                }
                detecting_read = (
                    left_read
                    if left_read.response_local >=
                    right_read.response_local
                    else right_read
                )
    return count, example, detecting_read


REFERENCE_PAIRS = {
    CONTENT_DIVERGENCE: _reference_content_pair,
    ORDER_DIVERGENCE: _reference_order_pair,
}


def reference_observations(trace, anomaly):
    observations = []
    for first, second in trace.agent_pairs():
        left, right = sorted((first, second))
        count, example, detecting_read = REFERENCE_PAIRS[anomaly](
            trace.reads_by(left), trace.reads_by(right)
        )
        if count == 0:
            continue
        observations.append(AnomalyObservation(
            anomaly=anomaly,
            agent=left,
            time=trace.corrected_response(detecting_read),
            pair=(left, right),
            details={"divergent_read_pairs": count, "example": example},
        ))
    return observations


def _reference_diverged(anomaly, view_a, view_b):
    if anomaly == CONTENT_DIVERGENCE:
        set_a, set_b = set(view_a), set(view_b)
        return bool(set_a - set_b) and bool(set_b - set_a)
    return first_inversion(view_a, view_b) is not None


def _timeline(trace, agent):
    steps = [(float("-inf"), ())]
    steps.extend((trace.corrected_response(r), r.observed)
                 for r in trace.reads_by(agent))
    return steps


def reference_windows(trace, agent_a, agent_b, anomaly):
    """One walk per predicate, the predicate at every change point."""
    pair = tuple(sorted((agent_a, agent_b)))
    timeline_a = _timeline(trace, pair[0])
    timeline_b = _timeline(trace, pair[1])
    change_points = sorted({t for t, _ in timeline_a[1:]}
                           | {t for t, _ in timeline_b[1:]})
    intervals = []
    start = None
    for time in change_points:
        view_a = [v for t, v in timeline_a if t <= time][-1]
        view_b = [v for t, v in timeline_b if t <= time][-1]
        diverged = _reference_diverged(anomaly, view_a, view_b)
        if diverged and start is None:
            start = time
        elif not diverged and start is not None:
            intervals.append((start, time))
            start = None
    if start is not None:
        intervals.append((start, change_points[-1]))
    return WindowResult(pair=pair, intervals=tuple(intervals),
                        converged=start is None)


def streaming_observations(trace, checker):
    meta = TestMeta.from_trace(trace)
    checker.open_test(meta)
    for sop in stream_order(trace, meta):
        checker.observe(meta, sop)
    return checker.close_test(meta)


def assert_matches_reference(trace):
    report = check_all(trace)
    for anomaly, checker, online in (
        (CONTENT_DIVERGENCE, ContentDivergenceChecker(),
         StreamingContentDivergenceChecker()),
        (ORDER_DIVERGENCE, OrderDivergenceChecker(),
         StreamingOrderDivergenceChecker()),
    ):
        expected = reference_observations(trace, anomaly)
        assert checker.check(trace) == expected
        assert report.observations[anomaly] == expected
        assert streaming_observations(trace, online) == expected

    content, order = trace_windows(trace)
    pairs = [tuple(sorted(p)) for p in trace.agent_pairs()]
    assert list(content) == pairs and list(order) == pairs
    for first, second in trace.agent_pairs():
        pair = tuple(sorted((first, second)))
        expected_content = reference_windows(trace, first, second,
                                             CONTENT_DIVERGENCE)
        expected_order = reference_windows(trace, first, second,
                                           ORDER_DIVERGENCE)
        assert content[pair] == expected_content
        assert order[pair] == expected_order
        assert content_divergence_windows(trace, first, second) \
            == expected_content
        assert order_divergence_windows(trace, first, second) \
            == expected_order


# -- Inputs ----------------------------------------------------------------

def repeated_view_trace(seed):
    """Reads drawn from a handful of views, on a coarse time grid.

    Most reads repeat a view already returned (by the same or another
    agent), local response instants tie across agents, and the empty
    view and reordered copies of one set are among the choices.
    """
    rng = RandomSource(seed=seed).stream("oracle.trace")
    ids = ("m0", "m1", "m2", "m3")
    views = [(), ("m0",), ("m0", "m1"), ("m1", "m0"), ("m1", "m2"),
             ("m2", "m1", "m0"), ("m0", "m1", "m2", "m3"),
             ("m3", "m2")]
    operations = [write(AGENTS[i % 2], mid, 0.0) for i, mid in
                  enumerate(ids)]
    for _ in range(rng.randrange(10, 60)):
        agent = AGENTS[rng.randrange(0, len(AGENTS))]
        at = float(rng.randrange(1, 12))
        operations.append(read(agent, views[rng.randrange(0, 8)], at,
                               response=at + rng.choice((0.0, 0.5))))
    deltas = {agent: rng.choice((0.0, 0.0, 0.5)) for agent in AGENTS}
    return make_trace(operations, agents=AGENTS, test_id=f"rep-{seed}",
                      clock_deltas=deltas)


def hand_built_traces():
    writes = [write("oregon", "M1", 0.0), write("tokyo", "M2", 0.0),
              write("oregon", "M3", 0.0)]
    # Many repeats of two divergent views, with one late flip.
    repeats = writes + [
        read("oregon", ("M1",), float(t)) for t in range(1, 9)
    ] + [
        read("tokyo", ("M2",), float(t) + 0.5) for t in range(1, 6)
    ] + [
        read("oregon", ("M1", "M2"), 9.0),
        read("tokyo", ("M2", "M1"), 9.0),
        read("oregon", ("M1",), 10.0),
    ]
    # Local response ties across the two sides of the example pair.
    ties = writes + [
        read("oregon", ("M3", "M1"), 1.0, response=2.0),
        read("tokyo", ("M1", "M3", "M2"), 1.5, response=2.0),
        read("tokyo", ("M1", "M3", "M2"), 1.8, response=2.0),
        read("oregon", ("M3", "M1"), 2.0, response=2.0),
        read("ireland", ("M2",), 0.5, response=2.0),
    ]
    # Empty views on both sides, mixed with divergent ones.
    empty = writes + [
        read("oregon", (), 1.0), read("tokyo", (), 1.0),
        read("oregon", ("M1",), 2.0), read("tokyo", (), 2.0),
        read("tokyo", ("M2",), 3.0), read("oregon", (), 4.0),
        read("ireland", (), 1.0), read("ireland", ("M3", "M1"), 5.0),
    ]
    # Ireland never reads: its pairs have an empty side.
    silent = writes + [
        write("ireland", "M4", 0.5),
        read("oregon", ("M1", "M3"), 1.0),
        read("tokyo", ("M3", "M1", "M2"), 1.0),
        read("oregon", ("M1", "M3"), 2.0),
    ]
    return [
        make_trace(repeats, agents=AGENTS, test_id="repeats"),
        make_trace(ties, agents=AGENTS, test_id="ties",
                   clock_deltas={"tokyo": 0.25, "ireland": -1.0}),
        make_trace(empty, agents=AGENTS, test_id="empty"),
        make_trace(silent, agents=AGENTS, test_id="silent"),
    ]


# -- Tests -------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(300))
def test_random_traces_match_reference(seed):
    assert_matches_reference(random_trace(seed))


@pytest.mark.parametrize("seed", range(100))
def test_repeated_view_traces_match_reference(seed):
    assert_matches_reference(repeated_view_trace(seed))


@pytest.mark.parametrize("index", range(4))
def test_hand_built_traces_match_reference(index):
    trace = hand_built_traces()[index]
    assert_matches_reference(trace)


def test_repeated_views_count_every_read_pair():
    trace = hand_built_traces()[0]
    (obs,) = ContentDivergenceChecker().check(trace)
    # 8 oregon (M1) reads x 5 tokyo (M2) reads, plus oregon's late
    # (M1) re-read against the same 5.
    assert obs.details["divergent_read_pairs"] == 9 * 5
    (order,) = OrderDivergenceChecker().check(trace)
    assert order.details["divergent_read_pairs"] == 1


@pytest.fixture(scope="module")
def campaign_traces():
    traces = []
    for service in ("googleplus", "facebook_feed"):
        result = run_campaign(service, CampaignConfig(
            num_tests=2, seed=5, keep_traces=True,
        ))
        traces.extend(record.trace for record in result.records)
    return traces


def test_campaign_traces_match_reference(campaign_traces):
    assert len(campaign_traces) == 8
    for trace in campaign_traces:
        assert_matches_reference(trace)
