"""The benchmark's metric tables.  ``BENCHMARK.json`` mirrors them (a test
checks it); ``README.md`` explains each one."""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median a metric may worsen by before a change counts as a regression.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("run_wall_s", "s", "lower", 0.25),
    ("worker_iters_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]

#: Reported in place of a counter the program no longer has.
ABSENT = -1

#: Public counters: metric -> (object, attribute), read with
#: ``getattr(..., None)`` so a counter a later change deletes reads absent.
COUNTERS: Dict[str, Tuple[str, str]] = {
    "sim.engine.events_processed": ("engine", "events_processed"),
    "sim.engine.events_elided": ("engine", "events_elided"),
    "sim.engine.events_skipped": ("engine", "events_skipped"),
    "sim.engine.calendar_sweeps": ("engine", "calendar_sweeps"),
    "sim.engine.quiet_regions": ("engine", "quiet_regions"),
    "sim.engine.rounds_collapsed": ("engine", "rounds_collapsed"),
    "sim.engine.round_events_saved": ("engine", "round_events_saved"),
    "sim.engine.pending_high_water": ("engine", "pending_high_water"),
    "sim.network.fast_path_transfers": ("net", "fast_path_transfers"),
    "sim.network.fallback_transfers": ("net", "fallback_transfers"),
    "sim.network.fused_deliveries": ("net", "fused_deliveries"),
    "sim.network.messages_on_wire": ("net", "total_messages"),
    "sim.network.bytes_on_wire": ("net", "total_bytes"),
    "core.server.dprs": ("sync_metrics", "dprs"),
    "core.server.snapshot_copies": ("servers", "snapshot_copies"),
    "core.server.snapshot_copies_avoided": ("servers", "snapshot_copies_avoided"),
    "sim.runner.server_msgs_inline": ("runner", "server_msgs_inline"),
    "sim.runner.server_msgs_drained": ("runner", "server_msgs_drained"),
}

#: (name, unit, better) of every per-layer metric, in print order.  Times
#: are host seconds of the traced rep; counts and ``sim.*`` repeat exactly
#: for a seed.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.engine.self_s", "s", "lower"),
    ("sim.engine.ns_per_event", "ns", "lower"),
    ("sim.engine.events_processed", "count", "lower"),
    ("sim.engine.events_elided", "count", "higher"),
    ("sim.engine.events_skipped", "count", "higher"),
    ("sim.engine.calendar_sweeps", "count", "higher"),
    ("sim.engine.quiet_regions", "count", "higher"),
    ("sim.engine.rounds_collapsed", "count", "higher"),
    ("sim.engine.round_events_saved", "count", "higher"),
    ("sim.engine.pending_high_water", "count", "lower"),
    ("sim.network.self_s", "s", "lower"),
    ("sim.network.send_calls", "count", "lower"),
    ("sim.network.fast_path_transfers", "count", "higher"),
    ("sim.network.fallback_transfers", "count", "lower"),
    ("sim.network.fused_deliveries", "count", "higher"),
    ("sim.network.messages_on_wire", "count", "lower"),
    ("sim.network.bytes_on_wire", "bytes", "lower"),
    ("core.server.self_s", "s", "lower"),
    ("core.server.push_calls", "count", "lower"),
    ("core.server.pull_calls", "count", "lower"),
    ("core.server.quiet_round_calls", "count", "higher"),
    ("core.server.dprs", "count", "lower"),
    ("core.server.dpr_share", "ratio", "lower"),
    ("core.server.snapshot_copies", "count", "lower"),
    ("core.server.snapshot_copies_avoided", "count", "higher"),
    ("sim.runner.init_s", "s", "lower"),
    ("sim.runner.self_s", "s", "lower"),
    ("sim.runner.collapse_share", "ratio", "higher"),
    ("sim.runner.server_msgs_inline", "count", "higher"),
    ("sim.runner.server_msgs_drained", "count", "lower"),
    ("sim.stragglers.self_s", "s", "lower"),
    ("sim.stragglers.sample_calls", "count", "lower"),
    ("ml.self_s", "s", "lower"),
    ("ml.step_calls", "count", "lower"),
    ("ml.steps_per_s", "1/s", "higher"),
    ("ml.final_accuracy", "ratio", "higher"),
    ("obs.instants", "count", "lower"),
    ("obs.instants_spilled", "count", "lower"),
    ("obs.overhead_s", "s", "lower"),
    ("obs.checked_over_raw", "ratio", "lower"),
    ("analysis.sanitizer.self_s", "s", "lower"),
    ("analysis.sanitizer.events_checked", "count", "lower"),
    ("analysis.sanitizer.events_per_s", "1/s", "higher"),
    ("analysis.sanitizer.violations", "count", "lower"),
    ("host_share.sim.engine", "ratio", "lower"),
    ("host_share.sim.network", "ratio", "lower"),
    ("host_share.core.server", "ratio", "lower"),
    ("host_share.sim.runner", "ratio", "lower"),
    ("host_share.sim.stragglers", "ratio", "lower"),
    ("host_share.ml", "ratio", "lower"),
    ("host_share.obs", "ratio", "lower"),
    ("host_share.analysis.sanitizer", "ratio", "lower"),
    ("host_share.unattributed", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("sim.duration_s", "sim_s", "lower"),
    ("sim.dprs_per_100_iters", "count", "lower"),
    ("sim.comm_share", "ratio", "lower"),
]
