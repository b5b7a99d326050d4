"""The space load observatory (DESIGN.md §6.8).

The health plane (§6.4) watches only its *own* server; the Navigator
therefore expands ``Alt``/``Par`` itineraries blind to the rest of the
space.  The observatory closes that gap with three pieces:

- :class:`LoadDigest` — a compact, HLC-stamped snapshot of one server's
  load: residency, worker-pool occupancy, dead-letter depth, cpu and
  bandwidth rates aggregated from the resident
  :class:`~repro.health.profile.ResourceProfile`\\ s, and the wire bytes
  the traffic meter attributes to the host;
- :class:`SpaceView` — a per-server merge of peer digests ordered by
  their hybrid-logical-clock stamps, with staleness aging: a peer whose
  digest outlives ``stale_after`` decays toward *unknown*, never toward
  *idle* (a silent peer may be partitioned, not free);
- :class:`LoadObservatory` — the heartbeat loop.  Every ``cadence``
  seconds it computes the local digest and emits it as a ``"load"``
  frame toward every peer the transport already holds a live channel to
  (``Transport.live_peers``), so heartbeats ride pooled keepalive
  connections and in-memory links that an earlier exchange opened — a
  digest never dials.  Inbound digests merge into the view, update the
  ``naplet_peer_load{server,dimension}`` gauges, and land in the flight
  recorder as ``load-digest`` records.

Navigation closes the loop through :meth:`LoadObservatory.order_branches`:
the itinerary driver's duck-typed hooks ask for a load-ranked branch
permutation when expanding an Alt or Par.  The fallback ladder is strict —
load order applies only when *every* admitting candidate has a fresh
digest (the local server is always fresh; its digest is computed on
demand); any unknown or stale candidate, a dormant observatory, or
``load_aware_navigation`` off all fall back to static declaration order.
Ties break on declaration index, so equal scores reproduce the static
order exactly.  Every consulted decision is journaled (kind ``"load"``)
with each candidate's digest, staleness and score, making the chosen
order reconstructible from the flight recorder alone.

An operator reads the merged view as the ``load`` payload of a harvest
row (:meth:`LoadObservatory.describe`; DESIGN.md §6.9).
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.transport.base import Frame, FrameKind, host_of
from repro.util.hlc import HLCStamp

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.naplet import Naplet
    from repro.itinerary.pattern import ItineraryPattern
    from repro.server.server import NapletServer

__all__ = ["LoadDigest", "SpaceView", "LoadObservatory"]

# CPU-rate contribution to the score is capped so one spinning naplet
# cannot outweigh queue depths by an unbounded margin.
_CPU_SCORE_CAP = 8.0


@dataclass(frozen=True)
class LoadDigest:
    """One server's load snapshot: small enough to ride any open channel.

    ``hlc`` is the encoded :class:`~repro.util.hlc.HLCStamp` taken when
    the digest was computed; receivers decode it to merge by causal
    order (the encoded string is exact but not lexicographically
    ordered).  ``seq`` is the emitter's beat counter, a human-friendly
    freshness hint for journals and dashboards.
    """

    server: str
    seq: int
    hlc: str
    residents: int = 0
    active: int = 0
    worker_backlog: int = 0
    dead_letter_depth: int = 0
    cpu_rate: float = 0.0
    bandwidth: float = 0.0
    egress_bytes: int = 0
    ingress_bytes: int = 0

    def stamp(self) -> HLCStamp:
        return HLCStamp.decode(self.hlc)

    def score(self) -> float:
        """Scalar load pressure: queue depths plus a capped CPU term.

        Each unit is roughly "one piece of work waiting or running":
        resident naplets, active threads, backlogged inbound frames and
        dead letters count 1 apiece; the CPU rate (cores busy) joins
        capped at ``_CPU_SCORE_CAP`` so a spin loop cannot dominate.
        """
        return (
            self.residents
            + self.active
            + self.worker_backlog
            + self.dead_letter_depth
            + min(self.cpu_rate, _CPU_SCORE_CAP)
        )

    def describe(self) -> dict[str, Any]:
        return {
            "server": self.server,
            "seq": self.seq,
            "hlc": self.hlc,
            "residents": self.residents,
            "active": self.active,
            "worker_backlog": self.worker_backlog,
            "dead_letter_depth": self.dead_letter_depth,
            "cpu_rate": self.cpu_rate,
            "bandwidth": self.bandwidth,
            "egress_bytes": self.egress_bytes,
            "ingress_bytes": self.ingress_bytes,
            "score": self.score(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LoadDigest":
        return cls(
            server=str(data["server"]),
            seq=int(data["seq"]),
            hlc=str(data["hlc"]),
            residents=int(data.get("residents", 0)),
            active=int(data.get("active", 0)),
            worker_backlog=int(data.get("worker_backlog", 0)),
            dead_letter_depth=int(data.get("dead_letter_depth", 0)),
            cpu_rate=float(data.get("cpu_rate", 0.0)),
            bandwidth=float(data.get("bandwidth", 0.0)),
            egress_bytes=int(data.get("egress_bytes", 0)),
            ingress_bytes=int(data.get("ingress_bytes", 0)),
        )


class SpaceView:
    """Merged peer digests at one server, aged by receipt time.

    Merging is by HLC order: a digest replaces the held one for its
    server only when its stamp is strictly newer, so duplicated or
    reordered heartbeats (the fault injector produces both) cannot roll
    the view backwards.  Staleness is judged against the *local*
    monotonic receipt time, not the digest's remote clock — a partition
    freezes receipts, which is exactly the signal to decay on.
    """

    def __init__(self, stale_after: float = 5.0) -> None:
        self.stale_after = stale_after
        self._lock = threading.Lock()
        # server -> (digest, decoded stamp, monotonic receipt time)
        self._held: dict[str, tuple[LoadDigest, HLCStamp, float]] = {}

    def observe(self, digest: LoadDigest, now_mono: float | None = None) -> bool:
        """Merge *digest*; True when it advanced the view (HLC order)."""
        try:
            stamp = digest.stamp()
        except (ValueError, AttributeError):
            return False  # malformed stamp: never corrupt the view
        now = time.monotonic() if now_mono is None else now_mono
        with self._lock:
            held = self._held.get(digest.server)
            if held is not None and held[1] >= stamp:
                return False
            self._held[digest.server] = (digest, stamp, now)
            return True

    def digest(self, server: str) -> LoadDigest | None:
        """The held digest for *server* regardless of age (None if none)."""
        with self._lock:
            held = self._held.get(server)
        return None if held is None else held[0]

    def staleness(self, server: str, now_mono: float | None = None) -> float | None:
        """Seconds since *server*'s digest arrived (None if never seen)."""
        with self._lock:
            held = self._held.get(server)
        if held is None:
            return None
        now = time.monotonic() if now_mono is None else now_mono
        return max(0.0, now - held[2])

    def fresh_digest(
        self, server: str, now_mono: float | None = None
    ) -> LoadDigest | None:
        """The digest for *server* if younger than ``stale_after``.

        A stale digest returns None — the peer decays to *unknown*, it
        is never treated as idle.
        """
        with self._lock:
            held = self._held.get(server)
        if held is None:
            return None
        now = time.monotonic() if now_mono is None else now_mono
        if now - held[2] > self.stale_after:
            return None
        return held[0]

    def peers(self) -> list[str]:
        with self._lock:
            return sorted(self._held)

    def forget(self, server: str) -> None:
        with self._lock:
            self._held.pop(server, None)

    def describe(self, now_mono: float | None = None) -> dict[str, Any]:
        """JSON-able view: per-peer digest, age, and aged score."""
        now = time.monotonic() if now_mono is None else now_mono
        with self._lock:
            held = dict(self._held)
        peers: dict[str, Any] = {}
        for server in sorted(held):
            digest, _stamp, received = held[server]
            age = max(0.0, now - received)
            fresh = age <= self.stale_after
            peers[server] = {
                "digest": digest.describe(),
                "age_s": age,
                "fresh": fresh,
                # Stale decays to unknown (None), never to an idle 0.0.
                "score": digest.score() if fresh else None,
            }
        return peers


class LoadObservatory:
    """Heartbeat emitter + view merger + load-aware ordering for one server.

    Mirrors the :class:`~repro.health.plane.HealthPlane` lifecycle: dormant
    (no thread, empty answers) unless telemetry and the observatory are
    both enabled; :meth:`beat_now` is the thread's body and is public so
    tests and the ``naplet stat`` demo get a deterministic beat without
    waiting out the cadence.
    """

    def __init__(self, server: "NapletServer") -> None:
        config = server.config
        self.server = server
        self.enabled = bool(config.telemetry_enabled and config.observatory_enabled)
        self.cadence = config.load_cadence
        self.load_aware = bool(config.load_aware_navigation)
        self.view = SpaceView(stale_after=config.load_stale_after)
        self.beats = 0
        self._seq = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        if self.enabled:
            registry = server.telemetry.registry
            self._digests_sent = registry.counter(
                "naplet_load_digests_sent_total",
                "Load-digest heartbeats emitted, by destination host",
            )
            self._digests_received = registry.counter(
                "naplet_load_digests_received_total",
                "Load digests merged into the view, by source host",
            )
            self._send_failures = registry.counter(
                "naplet_load_digest_send_failures_total",
                "Heartbeats lost to unreachable peers, by destination host",
            )
            self._reroutes = registry.counter(
                "load_aware_reroutes_total",
                "Alt/Par expansions whose load-ranked order differed from "
                "declaration order",
            )
            self._peer_gauge = registry.gauge(
                "naplet_peer_load",
                "Last merged peer load, by server and dimension",
            )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start the heartbeat thread (no-op when dormant or running)."""
        if not self.enabled or self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name=f"observatory-{self.server.hostname}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=1.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.cadence):
            try:
                self.beat_now()
            except Exception as exc:
                # A heartbeat must never take the server down with it.
                self.server.journal.record("load-beat-error", error=repr(exc))

    # ------------------------------------------------------------------ #
    # Digests
    # ------------------------------------------------------------------ #

    def local_digest(self) -> LoadDigest:
        """This server's load right now (always fresh by construction)."""
        server = self.server
        cpu_rate = 0.0
        bandwidth = 0.0
        for profile in server.health.profiles:
            if profile.resident:
                cpu_rate += profile.cpu_rate()
                bandwidth += profile.bandwidth()
        worker_backlog = 0
        backlog_fn = getattr(server.transport, "worker_backlog", None)
        if callable(backlog_fn):
            try:
                worker_backlog = int(backlog_fn(server.urn))
            except Exception:
                worker_backlog = 0
        egress = ingress = 0
        meter = getattr(server.transport, "meter", None)
        try:
            if meter is not None and hasattr(meter, "host_bytes"):
                egress, ingress = meter.host_bytes(server.hostname)
            else:
                egress, ingress = server.transport.endpoint_bytes(server.hostname)
        except Exception:
            egress = ingress = 0
        # The journal's clock is the server's HLC; it exists (and keeps
        # causal order) even when the journal itself is disabled.
        stamp = server.journal.clock.now()
        return LoadDigest(
            server=server.hostname,
            seq=self._seq,
            hlc=stamp.encode(),
            residents=server.manager.resident_count,
            active=server.monitor.active_count,
            worker_backlog=worker_backlog,
            dead_letter_depth=len(server.messenger.dead_letters),
            cpu_rate=cpu_rate,
            bandwidth=bandwidth,
            egress_bytes=int(egress),
            ingress_bytes=int(ingress),
        )

    def beat_now(self) -> int:
        """One heartbeat pass: digest, merge locally, emit to live peers.

        Returns the number of peers the digest was sent to.  Public so
        tests and tools run a deterministic beat on demand.
        """
        if not self.enabled:
            return 0
        self._seq += 1
        digest = self.local_digest()
        # Our own row in the view keeps dashboards symmetric; ordering
        # never reads it (it calls local_digest() for an exact value).
        self.view.observe(digest)
        self._set_peer_gauges(digest)
        sent = self._emit(digest)
        self._refresh_staleness_gauges()
        self.beats += 1
        return sent

    def _emit(self, digest: LoadDigest) -> int:
        """Send *digest* toward every peer with an already-open channel.

        ``live_peers`` is the no-dial guarantee: the in-memory transport
        lists only links an earlier frame opened, the TCP transport only
        destinations with a live pooled keepalive.  Per-peer failures are
        counted and swallowed — a heartbeat is best-effort by design.
        """
        transport = self.server.transport
        live = getattr(transport, "live_peers", None)
        if not callable(live):
            return 0
        try:
            peers = live(self.server.urn)
        except Exception:
            return 0
        payload = pickle.dumps(digest.describe())
        sent = 0
        for urn in peers:
            if host_of(urn) == self.server.hostname:
                continue
            frame = Frame(
                kind=FrameKind.LOAD,
                source=self.server.urn,
                dest=urn,
                payload=payload,
                headers={"hlc": self.server.journal.clock.now().encode()},
            )
            try:
                transport.send(frame)
            except Exception:
                self._send_failures.inc(dest=host_of(urn))
                continue
            sent += 1
            self._digests_sent.inc(dest=host_of(urn))
        return sent

    def handle_load_frame(self, frame: Frame) -> bytes:
        """Inbound ``"load"`` frame: merge, gauge, journal the receipt."""
        try:
            digest = LoadDigest.from_dict(pickle.loads(frame.payload))
        except Exception:
            return pickle.dumps({"ok": False, "reason": "malformed load digest"})
        if not self.enabled:
            # A dormant observatory still acks politely so a mixed space
            # (observing and non-observing servers) stays quiet on the wire.
            return pickle.dumps({"ok": True, "merged": False})
        merged = self.view.observe(digest)
        if merged:
            self._digests_received.inc(source=digest.server)
            self._set_peer_gauges(digest)
            journal = self.server.journal
            if journal.enabled:
                journal.append(
                    kind="load-digest",
                    category="load",
                    detail={
                        "peer": digest.server,
                        "seq": digest.seq,
                        "score": digest.score(),
                        "residents": digest.residents,
                        "active": digest.active,
                        "worker_backlog": digest.worker_backlog,
                        "dead_letter_depth": digest.dead_letter_depth,
                        "cpu_rate": round(digest.cpu_rate, 4),
                    },
                )
        return pickle.dumps({"ok": True, "merged": merged})

    # ------------------------------------------------------------------ #
    # Gauges
    # ------------------------------------------------------------------ #

    _GAUGE_DIMENSIONS = (
        "score",
        "residents",
        "active",
        "worker_backlog",
        "dead_letter_depth",
        "cpu_rate",
        "bandwidth",
    )

    def _set_peer_gauges(self, digest: LoadDigest) -> None:
        for dimension in self._GAUGE_DIMENSIONS:
            value = digest.score() if dimension == "score" else getattr(digest, dimension)
            self._peer_gauge.set(float(value), server=digest.server, dimension=dimension)

    def _refresh_staleness_gauges(self) -> None:
        now = time.monotonic()
        for peer in self.view.peers():
            age = self.view.staleness(peer, now)
            if age is not None:
                self._peer_gauge.set(age, server=peer, dimension="staleness")

    # ------------------------------------------------------------------ #
    # Load-aware navigation
    # ------------------------------------------------------------------ #

    def order_branches(
        self, naplet: "Naplet", pattern: "ItineraryPattern", kind: str = "alt"
    ) -> tuple[int, ...] | None:
        """Load-ranked branch permutation for an Alt/Par, or None for static.

        The fallback ladder, top to bottom:

        1. observatory dormant, ``load_aware_navigation`` off, or fewer
           than two admitting branches → None, nothing journaled (there
           is no decision to explain);
        2. any admitting candidate's server has no digest or a stale one
           → None, journaled with the failing candidate as the reason —
           a stale peer is *unknown*, and unknown beats a wrong guess;
        3. otherwise the admitting branches sort by ``(score,
           declaration index)`` — the deterministic tie-break that makes
           equal scores reproduce declaration order exactly — followed by
           the non-admitting branches in declaration order (they are
           skipped at selection time regardless of position).

        A decision whose admitting order differs from declaration order
        counts on ``load_aware_reroutes_total``; every rung-2/3 decision
        is journaled with each candidate's digest, staleness and score.
        """
        if not self.enabled or not self.load_aware:
            return None
        children = getattr(pattern, "children", None)
        if not children or len(children) < 2:
            return None
        now_mono = time.monotonic()
        candidates: list[dict[str, Any]] = []
        admitting = 0
        fallback: str | None = None
        for index, child in enumerate(children):
            visit = child.first_admitting_visit(naplet)
            if visit is None:
                candidates.append(
                    {"branch": index, "server": None, "score": None, "stale_s": None}
                )
                continue
            admitting += 1
            host = host_of(visit.server)
            entry: dict[str, Any] = {"branch": index, "server": host}
            if host == self.server.hostname:
                digest: LoadDigest | None = self.local_digest()
                stale: float | None = 0.0
            else:
                digest = self.view.fresh_digest(host, now_mono)
                stale = self.view.staleness(host, now_mono)
            entry["stale_s"] = None if stale is None else round(stale, 3)
            if digest is None:
                entry["score"] = None
                if fallback is None:
                    fallback = (
                        f"{host}: no digest"
                        if stale is None
                        else f"{host}: digest stale ({stale:.2f}s > "
                        f"{self.view.stale_after:.2f}s)"
                    )
            else:
                entry["score"] = digest.score()
                entry["seq"] = digest.seq
                entry["hlc"] = digest.hlc
            candidates.append(entry)
        if admitting < 2:
            return None
        static = tuple(range(len(children)))
        if fallback is not None:
            self._journal_decision(
                naplet, kind, candidates, order=static, changed=False, fallback=fallback
            )
            return None
        ranked = [c for c in candidates if c["score"] is not None]
        skipped = [c for c in candidates if c["score"] is None]
        ranked.sort(key=lambda c: (c["score"], c["branch"]))
        order = tuple(c["branch"] for c in ranked) + tuple(c["branch"] for c in skipped)
        # "Changed" judges only the admitting branches: non-admitting ones
        # are never chosen, so shuffling them is not a reroute.
        changed = [c["branch"] for c in ranked] != sorted(c["branch"] for c in ranked)
        if changed:
            self._reroutes.inc(kind=kind)
        self._journal_decision(
            naplet, kind, candidates, order=order, changed=changed, fallback=None
        )
        return order

    def _journal_decision(
        self,
        naplet: "Naplet",
        kind: str,
        candidates: list[dict[str, Any]],
        order: tuple[int, ...],
        changed: bool,
        fallback: str | None,
    ) -> None:
        """One ``load`` record per consulted expansion: the whole decision."""
        journal = self.server.journal
        if not journal.enabled:
            return
        try:
            naplet_key = str(naplet.naplet_id) if naplet.has_id else naplet.name
        except Exception:  # pragma: no cover - defensive
            naplet_key = getattr(naplet, "name", None)
        ctx = getattr(naplet, "trace_context", None)
        journal.append(
            kind="load",
            category="load",
            naplet=naplet_key,
            trace_id=ctx.trace_id if ctx is not None else None,
            detail={
                "pattern": kind,
                "candidates": candidates,
                "order": list(order),
                "changed": changed,
                "fallback": fallback,
            },
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def reroutes(self) -> int:
        """Expansions where load ranking beat declaration order so far."""
        if not self.enabled:
            return 0
        return int(self._reroutes.total())

    def describe(self) -> dict[str, Any]:
        """JSON-serializable observatory snapshot: the ``load`` payload of
        a harvest row (:mod:`repro.health.harvest`)."""
        info: dict[str, Any] = {
            "enabled": self.enabled,
            "server": self.server.hostname,
            "cadence": self.cadence,
            "stale_after": self.view.stale_after,
            "load_aware": self.load_aware,
            "beats": self.beats,
            "peers": self.view.describe(),
        }
        if self.enabled:
            info["local"] = self.local_digest().describe()
            info["reroutes"] = self.reroutes()
        return info
