"""E8: transport — one-exchange hops over pooled connections, delta shipping.

Three legs over real localhost sockets.

**Hop leg** (``fastpath``).  Two servers with the CENTRAL directory hosted
at the destination, so the per-hop wire cost is fully visible in the
transport's frame counters: a hop is ONE request/reply exchange — the
``NAPLET_TRANSFER`` carrying the credential, with the landing check, the
transfer ack and the arrival registration (a local call at the directory's
host) folded in — and
all hops share the pooled keepalive connections.  Assertions ride on the
frame/connection counters — not timing — so the benchmark is stable;
latencies and throughput are recorded in ``BENCH_transport.json`` for the
curious.

**Delta leg** (``delta_on``).  A courier with ~2 MB of immutable cargo and
a tiny mutating visit log ping-pongs between the two servers: the first
hop ships the full image, every repeat hop only the changed fields.  The
wire counters prove the byte win against the cargo it did not re-ship
(``bytes_per_hop`` ≤ 40% of ``cargo_bytes``) — a structural metric CI
gates on.  The same courier then tours a ring of three servers for 12
hops: the cargo crosses each of the three links once and every later hop
omits it (``ring_bytes_per_hop``, structural as well).  The cargo is
exactly ``bytes``, so it is its own field image: ``cargo_copies_per_hop``
counts the landings whose cargo is not the one object the destination's
delta cache holds for it (an unpickled or copied duplicate), per hop —
structural, and 0.

**Tour leg** (``tour``).  The journey benchmark's ``tour_small`` shape: a
counter-only naplet tours a ring of three servers for 11 hops and hops
home, after one warm-up tour with the same plan.  ``bytes_per_hop`` counts
the transfer and one-way directory-event frames of a hop — a structural metric:
each thing a small hop carries crosses once (the plan by reference after
the launch, the credential only as the transfer payload) and compactly.
After the timed legs' servers are gone, the same lap also counts what the
flight recorder kept of it: ``journal_records_per_hop`` (records the four
journals appended) and ``journal_bytes_per_hop`` (what those records retain,
by the deep walk of ``benchmarks/journal_memory.py``, shared objects
charged once).  Both are structural: a new record per hop, or a record that
grows a container, regresses them.

**Frame leg** (``frame``).  One pooled request/reply in isolation (a
128-byte frame, and a transfer-shaped frame with 13 out-of-band segments)
next to its floor on the same machine: a bare two-thread socket ping-pong
plus the encoding and decoding of the two envelopes.  The process is pinned to one CPU
for it, as the journey benchmark is: unpinned, a 2-vCPU VM pays a
cross-CPU wake-up per thread hand-off and the numbers triple.

The legs this benchmark used to compare against — dial-per-frame with the
two-phase LANDING handshake (``baseline``) and full-image shipping
(``delta_full``) — were deleted with the code they measured; their last
numbers are frozen in EXPERIMENTS.md (E13).  The live full-vs-delta
comparison is the journey benchmark's ``courier_churn`` vs
``courier_static``.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import statistics
import threading
import time
from pathlib import Path

import repro
from repro.codeshipping.codebase import CodeBaseRegistry
from repro.perf.bench import write_bench
from repro.core.credential import SigningAuthority
from repro.itinerary import Itinerary, ResultReport, SeqPattern
from repro.server import DirectoryMode, NapletServer, ServerConfig
from repro.transport.base import Frame, FrameKind
from repro.transport.pool import decode_reply, decode_request, encode_reply, encode_request
from repro.transport.tcp import TcpTransport
from repro.util.concurrency import wait_until
from benchmarks.journal_memory import retained
from benchmarks.journey.agents import TourNaplet
from tests.conftest import CollectorNaplet, StallNaplet

HOPS = 12
MESSAGES = 150
_HOP_KINDS = ("naplet-transfer", "directory-event")

# Frame leg: payload of the small frame, segment count of the segmented one
# (a counter-only naplet's transfer carries 13 field segments).
FRAME_BYTES = 128
FRAME_SEGMENTS = 13

# Delta leg: itinerary length (ping-pong and ring) and the immutable cargo size.
DELTA_HOPS = 12
CARGO_BYTES = 2 * 1024 * 1024
PING_PONG = ["b01", "b00"] * (DELTA_HOPS // 2)
RING = ["b01", "b02", "b00"] * (DELTA_HOPS // 3)

# Tour leg: tour_small's route, 11 hops round three peers and the hop home.
TOUR = [("b01", "b02", "b03")[i % 3] for i in range(HOPS - 1)] + ["b00"]


class CourierNaplet(CollectorNaplet):
    """Collector with heavy immutable cargo: the delta-shipping workload.

    The cargo never changes after construction; only the small visit log
    mutates per hop — exactly the shape delta shipping targets.
    """

    def __init__(self, name: str, cargo: bytes, **kwargs) -> None:
        super().__init__(name, **kwargs)
        self.cargo = cargo


def _space(names=("b00", "b01")):
    transport = TcpTransport()
    authority = SigningAuthority()
    registry = CodeBaseRegistry()
    base = ServerConfig(
        directory_mode=DirectoryMode.CENTRAL,
        directory_urn="naplet://b01",
    )
    servers = {
        name: NapletServer(
            hostname=name,
            transport=transport,
            authority=authority,
            code_registry=registry,
            config=dataclasses.replace(base),
        )
        for name in names
    }
    return transport, servers


def _shutdown(transport, servers) -> None:
    for server in servers.values():
        server.shutdown()
    transport.close()


def _hop_frames(transport) -> int:
    return sum(transport.meter.kind_stats(kind).frames for kind in _HOP_KINDS)


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def _measure_hops() -> dict:
    transport, servers = _space()
    try:
        latencies = []
        for i in range(HOPS):
            agent = CollectorNaplet(f"hop-{i}")
            agent.set_itinerary(
                Itinerary(SeqPattern.of_servers(["b01"], post_action=ResultReport("visited")))
            )
            listener = repro.NapletListener()
            started = time.perf_counter()
            servers["b00"].launch(agent, owner="bench", listener=listener)
            latencies.append(time.perf_counter() - started)
            assert listener.next_report(timeout=20).payload == ["b01"]

        hop_frames = _hop_frames(transport)
        hop_connections = transport.connections_opened()

        # Throughput leg: post MESSAGES to a parked resident at b01.
        target = StallNaplet("rx", spin_seconds=60.0)
        target.set_itinerary(Itinerary(SeqPattern.of_servers(["b01"])))
        nid = servers["b00"].launch(target, owner="bench")
        assert wait_until(lambda: servers["b01"].manager.is_resident(nid), timeout=10)
        started = time.perf_counter()
        for i in range(MESSAGES):
            receipt = servers["b00"].messenger.post(None, nid, {"i": i})
            assert receipt.status == "delivered"
        elapsed = time.perf_counter() - started
        servers["b00"].terminate_naplet(nid)

        return {
            "hops": HOPS,
            "rt_frames_per_hop": hop_frames / HOPS,
            "connections_opened_for_hops": hop_connections,
            "connections_per_hop": hop_connections / HOPS,
            "hop_latency_p50_ms": _percentile(latencies, 0.50) * 1e3,
            "hop_latency_p95_ms": _percentile(latencies, 0.95) * 1e3,
            "hop_latency_mean_ms": statistics.fmean(latencies) * 1e3,
            "messages": MESSAGES,
            "messages_per_sec": MESSAGES / elapsed,
        }
    finally:
        _shutdown(transport, servers)


def _measure_delta(route: list[str], full_hops: int) -> dict:
    """One journey of the heavy courier over *route*, of which the first
    *full_hops* hops — one per link — pay for the cargo."""
    transport, servers = _space(sorted(set(route)))
    copies = []
    for server in servers.values():
        serializer = server.serializer

        def landing(data, cache=None, *, buffers=None, prev=None, serializer=serializer,
                    loads=serializer.loads_with_info):
            naplet, info = loads(data, cache, buffers=buffers, prev=prev)
            if info["image"] is not None:  # a landed image, not a message body
                held = info["image"].entries["cargo"]
                copies.append(naplet.cargo is not serializer.blobs.get(held.hash))
            return naplet, info

        serializer.loads_with_info = landing
    try:
        agent = CourierNaplet("courier", cargo=b"\xc3" * CARGO_BYTES)
        agent.set_itinerary(
            Itinerary(SeqPattern.of_servers(route, post_action=ResultReport("visited")))
        )
        listener = repro.NapletListener()
        started = time.perf_counter()
        servers["b00"].launch(agent, owner="bench", listener=listener)
        report = listener.next_report(timeout=60)
        elapsed = time.perf_counter() - started
        assert report.payload == route

        def counted(name: str) -> int:
            return int(sum(getattr(s.telemetry, name).total() for s in servers.values()))

        # The source books the last hop (wire counters, then delta
        # counters) after the landing acks, which can be after the report
        # is already home: settle before reading.
        meter = transport.meter
        assert wait_until(
            lambda: meter.kind_stats("naplet-transfer").frames == DELTA_HOPS
            and counted("delta_hops") == DELTA_HOPS - full_hops,
            timeout=10,
        )
        transfer_bytes = meter.kind_stats("naplet-transfer").bytes
        delta_hops = counted("delta_hops")
        saved_bytes = counted("delta_saved_bytes")
        return {
            "hops": DELTA_HOPS,
            "cargo_bytes": CARGO_BYTES,
            "bytes_per_hop": transfer_bytes / DELTA_HOPS,
            "hops_per_sec": DELTA_HOPS / elapsed,
            "delta_hops": delta_hops,
            "delta_saved_bytes": saved_bytes,
            "cargo_copies_per_hop": sum(copies) / DELTA_HOPS,
        }
    finally:
        _shutdown(transport, servers)


def _measure_tour() -> dict:
    """Hop frame bytes and journal records of a counter-only tour, after
    one warm-up tour."""
    transport, servers = _space(("b00", *sorted(set(TOUR) - {"b00"})))
    try:
        def hop_kind_bytes() -> int:
            return sum(transport.meter.kind_stats(kind).bytes for kind in _HOP_KINDS)

        for lap in range(2):
            before = hop_kind_bytes()
            marks = {name: s.journal.total_appended for name, s in servers.items()}
            agent = TourNaplet("tour")
            agent.set_itinerary(
                Itinerary(SeqPattern.of_servers(TOUR, post_action=ResultReport("result")))
            )
            listener = repro.NapletListener()
            servers["b00"].launch(agent, owner="bench", listener=listener)
            assert listener.next_report(timeout=20).payload == len(TOUR)
            # The last hop's sender closes its hop span after the report is home.
            assert wait_until(
                lambda: sum(s.journal.count("hop") for s in servers.values())
                == len(TOUR) * (lap + 1),
                timeout=10,
            )
        hop_bytes = hop_kind_bytes() - before
        # Every naplet thread ends after its hop's last record is written.
        assert all(s.wait_idle(10) for s in servers.values())
        seen: set[int] = set()
        for name, server in servers.items():  # the warm-up lap pays for what it shares
            for record in server.journal.snapshot():
                if record.seq <= marks[name]:
                    retained(record, seen)
        lap = [
            record
            for name, server in servers.items()
            for record in server.journal.records(after_seq=marks[name])
        ]
        return {
            "hops": len(TOUR),
            "bytes_per_hop": hop_bytes / len(TOUR),
            "journal_records_per_hop": len(lap) / len(TOUR),
            "journal_bytes_per_hop": sum(retained(r, seen) for r in lap) / len(TOUR),
        }
    finally:
        _shutdown(transport, servers)


def _best_us(fn, rounds: int = 5, calls: int = 4000) -> float:
    """Fastest per-call mean over *rounds* (µs): the least-disturbed one."""
    for _ in range(calls // 4):
        fn()
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - started) / calls)
    return best * 1e6


def _measure_frame() -> dict:
    """One pooled round trip against its floor, pinned to one CPU."""
    payload = b"x" * FRAME_BYTES
    segments = tuple(bytes([i]) * 64 for i in range(FRAME_SEGMENTS))
    reply = b"ok"

    def frame(buffers=()):
        return Frame(
            kind=FrameKind.MESSAGE, source="naplet://f00", dest="naplet://f01",
            payload=payload, buffers=buffers,
        )

    def echo(sock):
        while data := sock.recv(4096):
            sock.sendall(data)

    def ping():
        near.sendall(payload)
        near.recv(4096)

    def envelopes():
        decode_request(encode_request(frame(), 1, True))
        decode_reply(encode_reply(1, True, reply))

    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    transport = TcpTransport()
    near, far = socket.socketpair()
    try:
        threading.Thread(target=echo, args=(far,), daemon=True).start()
        transport.register("naplet://f01", lambda _frame: reply)
        return {
            "frame_bytes": FRAME_BYTES,
            "frame_segments": FRAME_SEGMENTS,
            "floor_pingpong_us": _best_us(ping),
            "floor_envelope_us": _best_us(envelopes),
            "round_trip_us": _best_us(lambda: transport.request(frame(), timeout=5)),
            "round_trip_segmented_us": _best_us(
                lambda: transport.request(frame(segments), timeout=5)
            ),
        }
    finally:
        near.close()
        far.close()
        transport.close()
        os.sched_setaffinity(0, affinity)


class TestTransportFastPath:
    def test_bench_transport(self, table):
        fastpath = _measure_hops()

        # What the counters must prove, independent of machine speed: a
        # hop is a single request/reply exchange ...
        assert fastpath["rt_frames_per_hop"] == 1.0
        # ... and all hops share the pooled connections.
        assert fastpath["connections_per_hop"] < 1.0

        table(
            "E8: one-exchange hops (12 hops, 150 messages, localhost TCP)",
            ["RT/hop", "conns", "p50 ms", "p95 ms", "msg/s"],
            [[
                f"{fastpath['rt_frames_per_hop']:.1f}",
                fastpath["connections_opened_for_hops"],
                f"{fastpath['hop_latency_p50_ms']:.2f}",
                f"{fastpath['hop_latency_p95_ms']:.2f}",
                f"{fastpath['messages_per_sec']:.0f}",
            ]],
        )

        # Delta leg: a 12-hop ping-pong with ~2 MB of unchanging cargo.
        delta = _measure_delta(PING_PONG, full_hops=1)

        # Every repeat hop went delta (the first hop is always full) ...
        assert delta["delta_hops"] == DELTA_HOPS - 1
        # ... and the wire carried well under the 40% byte budget per hop,
        # against the cargo a full image would have re-shipped every time.
        assert delta["bytes_per_hop"] <= 0.4 * delta["cargo_bytes"]
        # ... and every landing's cargo is the destination cache's one object.
        assert delta["cargo_copies_per_hop"] == 0

        table(
            "E8b: delta state shipping (12-hop ping-pong, 2 MiB cargo)",
            ["bytes/hop", "hops/s", "delta hops", "saved B"],
            [[
                f"{delta['bytes_per_hop']:.0f}",
                f"{delta['hops_per_sec']:.1f}",
                delta["delta_hops"],
                delta["delta_saved_bytes"],
            ]],
        )

        # The same courier round a three-server ring: the cargo crosses
        # each link once, then travels by omission like the ping-pong's.
        ring = _measure_delta(RING, full_hops=3)
        assert ring["delta_hops"] == DELTA_HOPS - 3
        assert ring["bytes_per_hop"] <= 0.3 * ring["cargo_bytes"]
        assert ring["cargo_copies_per_hop"] == 0
        delta["ring_bytes_per_hop"] = ring["bytes_per_hop"]
        delta["ring_delta_hops"] = ring["delta_hops"]

        table(
            "E8b': the same courier on a three-server ring (12 hops)",
            ["bytes/hop", "hops/s", "delta hops", "saved B"],
            [[
                f"{ring['bytes_per_hop']:.0f}",
                f"{ring['hops_per_sec']:.1f}",
                ring["delta_hops"],
                ring["delta_saved_bytes"],
            ]],
        )

        # Tour leg: what one small hop of a counter-only naplet puts on the
        # wire, once the plan's peers hold it.
        tour = _measure_tour()
        assert tour["bytes_per_hop"] <= 1700
        table(
            "E8d: a counter-only tour round three peers (12 hops, after a warm-up tour)",
            ["bytes/hop", "journal records/hop", "journal B/hop"],
            [[
                f"{tour['bytes_per_hop']:.0f}",
                f"{tour['journal_records_per_hop']:.2f}",
                f"{tour['journal_bytes_per_hop']:.0f}",
            ]],
        )

        frame = _measure_frame()
        table(
            "E8c: one pooled frame, round trip vs floor (one CPU, best of 5 x 4000)",
            ["ping-pong us", "envelope us", "128 B frame us", "13-segment frame us"],
            [[
                f"{frame['floor_pingpong_us']:.1f}",
                f"{frame['floor_envelope_us']:.1f}",
                f"{frame['round_trip_us']:.1f}",
                f"{frame['round_trip_segmented_us']:.1f}",
            ]],
        )

        # Schema-v2 snapshot: same metric keys as always, plus git SHA /
        # timestamp / machine fingerprint so `napletperf diff` can attribute
        # deltas to code vs hardware.  NAPLET_BENCH_HISTORY (set by
        # `napletperf run --history`) appends a timestamped copy for trends.
        path = Path(__file__).resolve().parents[1] / "BENCH_transport.json"
        history = os.environ.get("NAPLET_BENCH_HISTORY")
        write_bench(
            path,
            "transport: one-exchange hops over pooled connections",
            {"fastpath": fastpath, "delta_on": delta, "tour": tour, "frame": frame},
            history_dir=history,
        )
