"""Property tests: load-aware Alt/Par ordering (DESIGN.md §6.4).

Two layers.  The plane half pins :meth:`HealthPlane.order_branches`
over random mirror sets and fabricated digests: equal (or absent) load
scores must reproduce static declaration order byte-for-byte, and any
seeded skew must put the least-loaded candidate first.  The driver half
pins :meth:`Itinerary._select_alt`: an identity permutation from the
ordering hook must leave the whole traversal — including failover burn
order — identical to the hook-less static path, and an arbitrary
permutation must burn candidates strictly in permutation order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.health.load import LoadDigest
from repro.itinerary.pattern import alt
from repro.server import ServerConfig, deploy
from repro.simnet import VirtualNetwork, line

from tests.itinerary.test_itinerary_unit import FakeOps, make_agent
from tests.itinerary.test_launch_with import RecordingTransfer

_MIRRORS = [f"r{i}" for i in range(6)]

_mirror_sets = st.lists(
    st.sampled_from(_MIRRORS), min_size=2, max_size=5, unique=True
)


# --------------------------------------------------------------------- #
# Load-aware ordering
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def observer():
    """One real server whose health plane we feed fabricated digests."""
    network = VirtualNetwork(line(1, prefix="s"))
    servers = deploy(network, config=ServerConfig(health_cadence=60.0))
    try:
        yield servers["s00"]
    finally:
        network.shutdown()


def _seed_view(server, loads: dict[str, int]) -> None:
    obs = server.health
    for peer in obs.view.peers():
        obs.view.forget(peer)
    clock = server.journal.clock
    for peer, residents in loads.items():
        obs.view.observe(
            LoadDigest(
                server=peer, seq=1, hlc=clock.now().encode(), residents=residents
            )
        )


def _order(server, mirrors: list[str]):
    agent = make_agent(alt(*mirrors))
    return server.health.order_branches(agent, alt(*mirrors))


class TestObservatoryOrdering:
    @given(_mirror_sets, st.integers(min_value=0, max_value=9))
    @settings(max_examples=40, deadline=None)
    def test_equal_scores_reproduce_declaration_order(
        self, observer, mirrors, residents
    ):
        _seed_view(observer, {m: residents for m in mirrors})
        before = observer.health.reroutes()
        assert _order(observer, mirrors) == tuple(range(len(mirrors)))
        assert observer.health.reroutes() == before  # not a reroute
        record = observer.journal.records(kind="load")[-1]
        assert record.detail["changed"] is False

    @given(_mirror_sets, st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_absent_digest_forces_static_fallback(
        self, observer, mirrors, data
    ):
        known = data.draw(
            st.lists(st.sampled_from(mirrors), unique=True,
                     max_size=len(mirrors) - 1)
        )
        _seed_view(observer, {m: 1 for m in known})
        assert _order(observer, mirrors) is None
        record = observer.journal.records(kind="load")[-1]
        assert record.detail["fallback"] is not None

    @given(_mirror_sets, st.data())
    @settings(max_examples=60, deadline=None)
    def test_seeded_skew_always_prefers_the_less_loaded(
        self, observer, mirrors, data
    ):
        loads = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=50),
                min_size=len(mirrors), max_size=len(mirrors), unique=True,
            )
        )
        _seed_view(observer, dict(zip(mirrors, loads)))
        order = _order(observer, mirrors)
        assert order is not None
        assert order[0] == loads.index(min(loads))
        # The full permutation sorts by (score, declaration index).
        assert list(order) == sorted(range(len(mirrors)), key=lambda i: (loads[i], i))


# --------------------------------------------------------------------- #
# Driver expansion
# --------------------------------------------------------------------- #


class HookedOps(FakeOps):
    """FakeOps plus the duck-typed ordering hook the Navigator exposes."""

    def __init__(self, order=None, **kwargs):
        super().__init__(**kwargs)
        self._order = order

    def order_alt_branches(self, naplet, pattern):
        return self._order


class TestDriverExpansion:
    @given(_mirror_sets, st.data())
    @settings(max_examples=60, deadline=None)
    def test_identity_order_is_byte_identical_to_static(self, mirrors, data):
        """Equal scores rank as (0, 1, ..): the traversal cannot differ."""
        unreachable = set(
            data.draw(st.lists(st.sampled_from(mirrors), unique=True))
        )
        runs = []
        for order in (None, tuple(range(len(mirrors)))):
            agent = make_agent(alt(*mirrors))
            transfer = RecordingTransfer(unreachable=set(unreachable))
            launched = agent.itinerary.launch_with(
                agent, HookedOps(order=order), transfer
            )
            runs.append(
                (launched, transfer.sent,
                 [f.server for f in agent.itinerary.failures],
                 agent.itinerary.alt_failovers)
            )
        assert runs[0] == runs[1]

    @given(_mirror_sets, st.data())
    @settings(max_examples=60, deadline=None)
    def test_candidates_burn_in_permutation_order(self, mirrors, data):
        perm = tuple(data.draw(st.permutations(range(len(mirrors)))))
        unreachable = set(
            data.draw(st.lists(st.sampled_from(mirrors), unique=True))
        )
        agent = make_agent(alt(*mirrors))
        transfer = RecordingTransfer(unreachable=set(unreachable))
        launched = agent.itinerary.launch_with(
            agent, HookedOps(order=perm), transfer
        )
        ranked = [mirrors[i] for i in perm]
        reachable = [m for m in ranked if m not in unreachable]
        failed = [f.server for f in agent.itinerary.failures]
        if reachable:
            assert launched is True
            assert transfer.sent == [reachable[0]]
            assert failed == ranked[: ranked.index(reachable[0])]
        else:
            assert launched is False
            assert failed == ranked
            assert agent.itinerary.completed
