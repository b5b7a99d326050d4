import threading
import time

import pytest

from benchmarks.journey.trace import ROOT, Tracer, attribute, self_intervals


def test_self_intervals_clip_and_merge_children():
    assert self_intervals(0.0, 10.0, []) == [(0.0, 10.0)]
    # overlapping children, one sticking out past the parent's end
    assert self_intervals(0.0, 10.0, [(2.0, 5.0), (4.0, 6.0), (9.0, 12.0)]) == [
        (0.0, 2.0), (6.0, 9.0),
    ]
    assert self_intervals(0.0, 10.0, [(-1.0, 11.0)]) == []


def test_nested_spans_sum_to_the_root_exactly():
    spans = [
        (1, 0, ROOT, 0.0, 10.0),
        (2, 1, "a", 1.0, 9.0),
        (3, 2, "b", 2.0, 4.0),
        (4, 2, "b", 5.0, 6.0),
    ]
    result = attribute(spans)
    assert result["wall"] == 10.0
    assert result["self"] == {"a": 5.0, "b": 3.0}
    assert result["unattributed"] == 2.0  # 0..1 and 9..10: no span open
    assert sum(result["self"].values()) + result["unattributed"] == result["wall"]
    assert result["calls"] == {"a": 1, "b": 2}


def test_cross_thread_child_is_subtracted_and_overlap_is_shared():
    # "request" waits 2..8 for a handler on another thread (its child by
    # cause); a third span of the same journey overlaps the handler 6..8.
    spans = [
        (1, 0, ROOT, 0.0, 10.0),
        (2, 1, "request", 1.0, 9.0),
        (3, 2, "handler", 2.0, 8.0),
        (4, 3, "onsite", 6.0, 12.0),  # outlives parent and root: clipped to both
    ]
    result = attribute(spans)
    # request self: 1..2 and 8..9, the latter shared with onsite
    # handler self: 2..6 alone (onsite covers 6..8 of it as its child)
    assert result["self"]["request"] == pytest.approx(1.0 + 0.5)
    assert result["self"]["handler"] == pytest.approx(4.0)
    assert result["self"]["onsite"] == pytest.approx(2.0 + 0.5 + 1.0)
    assert sum(result["self"].values()) + result["unattributed"] == pytest.approx(10.0)
    # unshared self times: request 2, handler 4, onsite 6 (two of them past the root)
    assert result["raw_self"] == pytest.approx(12.0)


def test_spans_that_lead_to_no_journey_are_background():
    spans = [
        (1, 0, ROOT, 0.0, 1.0),
        (2, 0, "heartbeat", 0.2, 0.4),
        (3, 2, "journal.append", 0.25, 0.3),
        (4, 99, "orphan", 0.5, 0.6),  # its parent fell outside the window
    ]
    result = attribute(spans)
    assert result["self"] == {}
    assert result["unattributed"] == result["wall"] == 1.0
    assert result["background"] == {"heartbeat": 1, "journal.append": 1, "orphan": 1}


def test_tracer_links_a_thread_to_its_cause():
    tracer = Tracer()
    tracer.recording = True
    seen = {}

    def child_work():
        time.sleep(0.001)

    def parent_work():
        cause = tracer.current()

        def body():
            tracer.adopt(cause)
            tracer.traced(child_work, "child")()

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=5)
        seen["joined"] = not thread.is_alive()

    with tracer.root():
        tracer.traced(parent_work, "parent")()
    assert seen["joined"]
    by_name = {span[2]: span for span in tracer.spans}
    assert by_name["child"][1] == by_name["parent"][0]
    assert by_name["parent"][1] == by_name[ROOT][0]
    result = attribute(tracer.spans)
    assert result["calls"] == {"parent": 1, "child": 1}
    assert sum(result["self"].values()) + result["unattributed"] == pytest.approx(result["wall"])


def test_a_tracer_that_is_not_recording_only_calls_through():
    tracer = Tracer()
    with tracer.root():
        assert tracer.traced(lambda x: x + 1, "anything")(1) == 2
    assert tracer.spans == []
