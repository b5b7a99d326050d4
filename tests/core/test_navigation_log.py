"""NavigationLog: arrival/departure history for post-analysis (paper §2.1)."""

from __future__ import annotations

import pickle

import pytest

from repro.core.navigation_log import NavigationLog


class TestVisits:
    def test_arrival_then_departure(self):
        log = NavigationLog()
        log.record_arrival("naplet://s1", when=100.0)
        rec = log.record_departure("naplet://s1", when=103.5)
        assert rec.complete
        assert rec.dwell == pytest.approx(3.5)

    def test_current_server_tracks_open_visit(self):
        log = NavigationLog()
        assert log.current_server() is None
        log.record_arrival("naplet://s1")
        assert log.current_server() == "naplet://s1"
        log.record_departure("naplet://s1")
        assert log.current_server() is None

    def test_departure_without_arrival_raises(self):
        log = NavigationLog()
        with pytest.raises(ValueError):
            log.record_departure("naplet://s1")

    def test_departure_closes_most_recent_open_visit(self):
        log = NavigationLog()
        log.record_arrival("naplet://s1", when=1.0)
        log.record_departure("naplet://s1", when=2.0)
        log.record_arrival("naplet://s1", when=5.0)  # revisit
        rec = log.record_departure("naplet://s1", when=9.0)
        assert rec.dwell == pytest.approx(4.0)
        assert log.visits()[0].dwell == pytest.approx(1.0)

    def test_servers_visited_keeps_order_and_repeats(self):
        log = NavigationLog()
        for server in ("a", "b", "a"):
            log.record_arrival(server)
            log.record_departure(server)
        assert log.servers_visited() == ["a", "b", "a"]

    def test_total_dwell_ignores_open_visits(self):
        log = NavigationLog()
        log.record_arrival("a", when=0.0)
        log.record_departure("a", when=2.0)
        log.record_arrival("b", when=3.0)  # still open
        assert log.total_dwell() == pytest.approx(2.0)

    def test_len_and_iter(self):
        log = NavigationLog()
        log.record_arrival("a")
        log.record_arrival("b")  # overlapping open visits allowed in the log
        assert len(log) == 2
        assert [r.server_urn for r in log] == ["a", "b"]

    def test_dwell_none_while_open(self):
        log = NavigationLog()
        rec = log.record_arrival("a")
        assert rec.dwell is None
        assert not rec.complete


class TestPickling:
    def test_roundtrip(self):
        log = NavigationLog()
        log.record_arrival("a", when=0.0)
        log.record_departure("a", when=1.0)
        log.record_arrival("b", when=2.0)
        copy = pickle.loads(pickle.dumps(log))
        assert copy.servers_visited() == ["a", "b"]
        assert copy.current_server() == "b"
        copy.record_departure("b", when=4.0)  # usable after restore
        assert copy.total_dwell() == pytest.approx(3.0)

    def test_closed_visits_fold_into_segments_that_round_trip(self):
        from repro.core.navigation_log import SEGMENT

        log = NavigationLog()
        for i in range(2 * SEGMENT + 1):
            log.record_arrival(f"s{i}", when=float(i))
            log.record_departure(f"s{i}", when=i + 0.5)
        log.record_arrival("open", when=99.0)
        *segments, tail = log.__getstate__()
        assert len(segments) == 2 and all(len(seg) == 3 * SEGMENT for seg in segments)
        assert segments[1][:3] == ("s4", 4.0, 4.5)  # one flat run of records
        assert tail == ("s8", 8.0, 8.5, "open", 99.0, None)
        assert all(a is b for a, b in zip(segments, log.__getstate__()))  # built once, kept
        copy = pickle.loads(pickle.dumps(log))
        assert len(copy) == len(log) == 2 * SEGMENT + 2
        assert [r.args for r in copy] == [r.args for r in log]
        assert copy.current_server() == "open"
        assert copy.total_dwell() == pytest.approx(0.5 * (2 * SEGMENT + 1))
