"""Golden determinism: the committed results are what the code writes.

Every fast path and every refactor of the runners claims to be a pure
change of representation — not one output byte may move.  This test
reruns, at the committed settings (quick scale, seed 0), the experiments
those changes touch hardest and compares the produced JSON byte-for-byte
against ``results/``: fig6 (the incast computation/communication split)
and fig7 (full SSP co-simulated training runs), the baselines' byte
oracles — fig1 (SSPtable), fig5 (PS-Lite), ``ablation-specsync``,
``ablation-network`` — fig8, whose soft-barrier accuracy drifted and
stayed stale for fifteen commits with nothing watching (ROADMAP item 8),
and table3, the cheapest document of synchronization dynamics without a
network (7 arms of 8 workers on the no-network preset).  ``--no-cache``
forces real simulation, so the content-addressed run cache cannot mask a
regression by replaying stale fragments.  CI regenerates *every* document
but the scale grid, sanitized, and diffs the directory (ci.yml, "Golden
sweep").
"""

import json
import re
from pathlib import Path

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.scale_grid import GRID_HEADERS

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: Experiment id -> the committed file it writes (quick scale, seed 0).
GOLDEN = {
    "fig1": "figure_1-_pmls-caffe_-ssptable-_accuracy_vs_cluster_size.json",
    "fig5": "figure_5-_non-overlap_-ps-lite-_vs_overlap_-fluentps-_synchronization.json",
    "fig6": "figure_6-_computation-communication_time-_resnet-56_cifar-10_-bsp.json",
    "fig7": "figure_7-_test_accuracy_vs_cluster_size-_ssp_s-3.json",
    "fig8": "figure_8-_lazy_execution_vs_soft_barrier_-ssp_s-2-_32_workers.json",
    "ablation-specsync": "ablation-_pssp_vs_specsync_-pause_vs_abort.json",
    "ablation-network": "ablation-_network-regime_sensitivity_of_the_overlap-eps_win.json",
    "table3": "table_iii-_model_semantics_under_one_straggler_scenario.json",
}


@pytest.mark.no_sanitize  # the sanitized sweep is CI's "Golden sweep" step
def test_fig6_fig7_results_byte_identical(tmp_path):
    """(The id predates the six documents added beside fig6/fig7.)"""
    for name in GOLDEN.values():
        assert (RESULTS / name).exists(), f"committed golden file missing: {name}"
    rc = bench_main(["--only", *GOLDEN, "--no-cache", "--save-dir", str(tmp_path)])
    assert rc == 0
    for name in GOLDEN.values():
        produced = (tmp_path / name).read_bytes()
        committed = (RESULTS / name).read_bytes()
        assert produced == committed, f"{name} changed — determinism broken"


def test_scale_grid_artifact_matches_what_it_ran():
    """The committed scale-grid result is filed under the worker count it
    actually reached and carries the column set the code emits today."""
    paths = sorted(RESULTS.glob("topology_x_scale_grid-*.json"))
    assert len(paths) == 1, paths
    doc = json.loads(paths[0].read_text())
    titled = re.search(r"scaling to (\d+) workers$", doc["experiment"])
    assert titled, doc["experiment"]
    assert doc["headers"] == list(GRID_HEADERS)
    workers = doc["headers"].index("workers")
    assert int(titled.group(1)) == max(row[workers] for row in doc["rows"])
