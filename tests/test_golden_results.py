"""Golden determinism: the committed results survive the wire fast path.

The analytic lane scheduler and the COW snapshot cache both claim to be
pure optimizations — not one output byte may move.  This test reruns the
two experiments the fast path touches hardest (fig6: the incast
computation/communication split; fig7: full SSP co-simulated training
runs) at the committed settings (quick scale, seed 0) and compares the
produced JSON byte-for-byte against ``results/``.  ``--no-cache``
forces real simulation, so the content-addressed run cache cannot mask
a regression by replaying stale fragments.
"""

import json
import re
from pathlib import Path

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.scale_grid import GRID_HEADERS

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: The committed files fig6/fig7 write (quick scale, seed 0).
GOLDEN = [
    "figure_6-_computation-communication_time-_resnet-56_cifar-10_-bsp.json",
    "figure_7-_test_accuracy_vs_cluster_size-_ssp_s-3.json",
]


@pytest.mark.no_sanitize  # full sweep: sanitized separately (CI --sanitize)
def test_fig6_fig7_results_byte_identical(tmp_path):
    for name in GOLDEN:
        assert (RESULTS / name).exists(), f"committed golden file missing: {name}"
    rc = bench_main(
        [
            "--only", "fig6", "fig7",
            "--no-cache",
            "--save-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    for name in GOLDEN:
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
