"""Periodic snapshot scraping of server and network internals.

The co-simulation runner installs a :class:`ServerSnapshotter` on its
engine (via :meth:`~repro.sim.engine.Engine.call_every`, so the sampler
never keeps a drained simulation alive) and each scrape records, in sim
time, the live quantities the paper's mechanisms act on:

- per-shard DPR queue depth, frontier value (``V_train``), update
  version, cumulative DPR count, and the age of the oldest buffered
  pull — the input signals any dynamic policy (DSPS/DSSP-style) needs;
- network pressure: bytes in flight plus per-node TX/RX NIC utilization
  (the incast bottleneck of §II-B, now visible as a series);
- fast-path health: how many transfers the analytic lane scheduler
  carried and how many of their deliveries fused (see
  ``docs/PERFORMANCE.md``, "The wire fast path and snapshot sharing").

Everything lands in gauge series keyed by ``shard``/``node`` labels, so
a metrics dump carries one curve per shard per quantity.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class ServerSnapshotter:
    """Scrapes a set of shard servers (and optionally a network)."""

    def __init__(
        self,
        registry,
        servers: Sequence,
        network=None,
        nodes: Optional[Sequence[str]] = None,
        engine=None,
        dispatch=None,
    ):
        """``nodes`` limits NIC gauges to the named endpoints (typically
        the server nodes — the incast side); default is all endpoints.
        ``engine`` adds the engine health gauges (pending-event
        high-water, rounds collapsed, round events saved).  ``dispatch``
        is any object exposing ``server_msgs_inline``/
        ``server_msgs_drained`` (the runner) and adds the
        request-dispatch counters."""
        self.servers = list(servers)
        self.network = network
        self.engine = engine
        self.dispatch = dispatch
        self.nodes: List[str] = (
            list(nodes)
            if nodes is not None
            else (sorted(network.endpoints) if network is not None else [])
        )
        self.scrapes = 0
        self._last_scrape_t: Optional[float] = None
        self._g_depth = registry.gauge(
            "ps_dpr_queue_depth", "buffered delayed pull requests per shard"
        )
        self._g_frontier = registry.gauge("ps_frontier", "V_train frontier per shard")
        self._g_version = registry.gauge("ps_version", "server update counter per shard")
        self._g_dprs = registry.gauge("ps_dprs", "cumulative DPRs per shard")
        self._g_age = registry.gauge(
            "ps_buffered_pull_age_seconds", "age of the oldest buffered pull per shard"
        )
        self._g_inflight = registry.gauge(
            "net_bytes_in_flight", "bytes currently on the wire"
        )
        self._g_net_bytes = registry.gauge("net_bytes_total", "bytes delivered so far")
        self._g_tx = registry.gauge(
            "nic_tx_utilization", "fraction of time the TX lane was serializing"
        )
        self._g_rx = registry.gauge(
            "nic_rx_utilization", "fraction of time the RX lane was draining"
        )
        self._g_fast = registry.gauge(
            "net_fast_path_transfers", "transfers scheduled by the analytic lane scheduler"
        )
        # Pre-bound label handles: scrape() runs every sampling interval
        # for every shard and node, so the kwargs->sorted-key label
        # formatting is paid once here instead of per sample.
        self._per_server = [
            (
                s,
                self._g_depth.labels(shard=s.shard_id),
                self._g_frontier.labels(shard=s.shard_id),
                self._g_version.labels(shard=s.shard_id),
                self._g_dprs.labels(shard=s.shard_id),
                self._g_age.labels(shard=s.shard_id),
            )
            for s in self.servers
        ]
        self._g_pending_hwm = registry.gauge(
            "engine_pending_event_hwm", "pending-event high-water mark"
        )
        self._g_rounds_collapsed = registry.gauge(
            "engine_rounds_collapsed",
            "protocol rounds committed in closed form (no per-message events)",
        )
        self._g_round_saved = registry.gauge(
            "engine_round_events_saved",
            "events the closed-form round fast-forward never scheduled",
        )
        self._g_fused = registry.gauge(
            "net_fused_deliveries",
            "deliveries folded into their TX-completion event",
        )
        self._g_inline = registry.gauge(
            "ps_dispatch_inline", "requests handled inside the delivery event"
        )
        self._g_drained = registry.gauge(
            "ps_dispatch_drained",
            "requests served behind a busy shard lane",
        )
        self._b_inflight = self._g_inflight.labels()
        self._b_net_bytes = self._g_net_bytes.labels()
        self._b_fast = self._g_fast.labels()
        self._b_pending_hwm = self._g_pending_hwm.labels()
        self._b_rounds_collapsed = self._g_rounds_collapsed.labels()
        self._b_round_saved = self._g_round_saved.labels()
        self._b_fused = self._g_fused.labels()
        self._b_inline = self._g_inline.labels()
        self._b_drained = self._g_drained.labels()
        self._per_node = (
            [
                (
                    network.endpoints[node],
                    self._g_tx.labels(node=node),
                    self._g_rx.labels(node=node),
                )
                for node in self.nodes
            ]
            if network is not None
            else []
        )

    def scrape(self, now: float) -> None:
        """Record one sample of every scraped quantity at sim time ``now``."""
        self.scrapes += 1
        self._last_scrape_t = now
        for server, b_depth, b_frontier, b_version, b_dprs, b_age in self._per_server:
            b_depth.set(server.buffered_pulls)
            b_frontier.set(server.v_train)
            b_version.set(server.version)
            b_dprs.set(server.metrics.dprs)
            b_age.set(oldest_buffered_age(server, now))
        if self.engine is not None:
            self._b_pending_hwm.set(self.engine.pending_high_water)
            self._b_rounds_collapsed.set(self.engine.rounds_collapsed)
            self._b_round_saved.set(self.engine.round_events_saved)
        if self.dispatch is not None:
            self._b_inline.set(self.dispatch.server_msgs_inline)
            self._b_drained.set(self.dispatch.server_msgs_drained)
        if self.network is not None:
            self._b_inflight.set(self.network.bytes_in_flight)
            self._b_net_bytes.set(self.network.total_bytes)
            self._b_fast.set(self.network.fast_path_transfers)
            self._b_fused.set(self.network.fused_deliveries)
            for ep, b_tx, b_rx in self._per_node:
                b_tx.set(ep.tx_utilization(now))
                b_rx.set(ep.rx_utilization(now))

    def install(self, engine, interval_s: float) -> None:
        """Scrape now and then every ``interval_s`` simulated seconds while
        the simulation still has real (non-sampler) work pending."""
        if interval_s <= 0:
            raise ValueError(f"snapshot interval must be positive, got {interval_s}")
        self.scrape(engine.now)
        engine.call_every(interval_s, lambda: self.scrape(engine.now))

    def finalize(self, now: float) -> None:
        """Emit the end-of-run snapshot so the last partial sampling
        period is never dropped; a no-op when the periodic scrape already
        sampled at (or after) ``now`` — except for the engine counters,
        which only accumulate when the drain returns (every mid-run
        scrape reads zero), so they are always re-set here."""
        if self._last_scrape_t is not None and not (now > self._last_scrape_t):
            if self.engine is not None:
                self._b_pending_hwm.set(self.engine.pending_high_water)
                self._b_rounds_collapsed.set(self.engine.rounds_collapsed)
                self._b_round_saved.set(self.engine.round_events_saved)
            if self.dispatch is not None:
                self._b_inline.set(self.dispatch.server_msgs_inline)
                self._b_drained.set(self.dispatch.server_msgs_drained)
            if self.network is not None:
                self._b_fused.set(self.network.fused_deliveries)
            return
        self.scrape(now)


def oldest_buffered_age(server, now: float) -> float:
    """Seconds the oldest buffered DPR on ``server`` has waited (0 if none)."""
    oldest = None
    for requests in server.callbacks.values():
        for req in requests:
            if oldest is None or req.enqueue_time < oldest:
                oldest = req.enqueue_time
    return 0.0 if oldest is None else max(0.0, now - oldest)
