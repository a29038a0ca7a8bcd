"""Scale presets and output helpers for the experiment harness."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs import Observability, default_metrics_path, dump_metrics, dump_trace
from repro.obs.report import render_report
from repro.utils.records import RunRecord, SeriesRecord
from repro.utils.tables import format_table


@dataclass(frozen=True)
class Scale:
    """How big to run an experiment.

    ``QUICK`` keeps every bench under a few seconds for CI; ``PAPER``
    approaches the paper's iteration counts and cluster sizes (minutes).
    Relative comparisons (who wins, by roughly what factor) hold at both.
    """

    name: str
    iters: int  # training iterations per run
    sim_iters: int  # iterations for timing-only simulations
    worker_counts: Sequence[int]  # Figure 6/7 sweep
    big_workers: int  # Figure 10's cluster size
    huge_workers: int  # Figure 11's cluster size
    dataset_train: int
    dataset_test: int
    eval_every: int
    dpr_iters: int  # Figure 9 / DPR-counting runs

    def __post_init__(self) -> None:
        if min(self.iters, self.sim_iters, self.dpr_iters) < 1:
            raise ValueError("iteration counts must be >= 1")


TINY = Scale(
    name="tiny",
    iters=40,
    sim_iters=6,
    worker_counts=(2, 4),
    big_workers=6,
    huge_workers=8,
    dataset_train=300,
    dataset_test=80,
    eval_every=20,
    dpr_iters=60,
)

QUICK = Scale(
    name="quick",
    iters=150,
    sim_iters=25,
    worker_counts=(2, 4, 8, 16),
    big_workers=16,
    huge_workers=32,
    dataset_train=2000,
    dataset_test=500,
    eval_every=50,
    dpr_iters=300,
)

PAPER = Scale(
    name="paper",
    iters=1500,
    sim_iters=120,
    worker_counts=(2, 4, 8, 16, 32, 64),
    big_workers=64,
    huge_workers=128,
    dataset_train=8000,
    dataset_test=2000,
    eval_every=100,
    dpr_iters=2000,
)


#: Named presets the CLI and ``REPRO_SCALE`` resolve through.
SCALES: Dict[str, Scale] = {"tiny": TINY, "quick": QUICK, "paper": PAPER}


def resolve_scale(default: Scale = QUICK) -> Scale:
    """Pick the scale from ``REPRO_SCALE`` (tiny|quick|paper), else ``default``."""
    name = os.environ.get("REPRO_SCALE", "").lower()
    return SCALES.get(name, default)


def _json_scalar(value: object) -> object:
    """Coerce one row value to a JSON-native scalar, losslessly.

    Bools/ints/floats/strings/None pass through (NumPy scalars become
    their Python equivalents); anything else falls back to ``str`` —
    keep row values native if you want ``from_dict(to_dict(x)) == x``.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return str(value)


@dataclass
class ExperimentResult:
    """Printable + serializable outcome of one figure/table experiment.

    Round-trippable: ``ExperimentResult.from_dict(x.to_dict()) == x``, also
    through ``json.dumps``/``json.loads``, as long as row values are JSON-native
    scalars (``add_row`` coerces them on the way in).  The run cache and
    the sweep executor's worker processes both transport results this
    way, so the guarantee is what makes ``--jobs N`` and warm-cache runs
    byte-identical to a serial pass.
    """

    experiment: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    records: List[RunRecord] = field(default_factory=list)
    series: List[SeriesRecord] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        self.rows.append([_json_scalar(v) for v in values])

    def record(self, name: str, **metrics: float) -> RunRecord:
        rec = RunRecord(name=name, metrics={k: float(v) for k, v in metrics.items()})
        self.records.append(rec)
        return rec

    def find(self, name: str) -> RunRecord:
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(f"no record {name!r} in {self.experiment}")

    def render(self) -> str:
        out = [format_table(self.headers, self.rows, title=f"== {self.experiment} ==")]
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)

    def show(self) -> None:
        print(self.render())

    def merge_fragment(self, fragment: "ExperimentResult") -> None:
        """Absorb a sweep arm's rows/records/series/notes, in order."""
        self.rows.extend(fragment.rows)
        self.records.extend(fragment.records)
        self.series.extend(fragment.series)
        self.notes.extend(fragment.notes)

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "headers": list(self.headers),
            "rows": [[_json_scalar(v) for v in row] for row in self.rows],
            "records": [r.to_dict() for r in self.records],
            "series": [s.to_dict() for s in self.series],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ExperimentResult":
        return cls(
            experiment=str(d["experiment"]),
            headers=[str(h) for h in d.get("headers", [])],
            rows=[list(row) for row in d.get("rows", [])],
            records=[RunRecord.from_dict(r) for r in d.get("records", [])],
            series=[SeriesRecord.from_dict(s) for s in d.get("series", [])],
            notes=[str(n) for n in d.get("notes", [])],
        )

    def save(self, directory: Optional[str] = None) -> Path:
        directory = directory or os.environ.get("REPRO_RESULTS_DIR", "results")
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        slug = "".join(
            ch if ch.isalnum() or ch in "._" else "-"
            for ch in self.experiment.lower().replace(" ", "_")
        ).strip("-")
        out = path / f"{slug}.json"
        out.write_text(json.dumps(self.to_dict(), indent=2))
        return out


def emit_observability(
    obs: Observability,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
) -> List[Path]:
    """Write the observability artifacts collected during a bench run.

    Exports the *last* captured run as a Perfetto trace (``trace_out``,
    with causal spans and flow arrows embedded), the full metrics
    registry as JSON (``metrics_out``, defaulting to
    ``<trace stem>.metrics.json`` next to the trace), and prints the
    human-readable report plus the critical-path blame table when the
    run carried a causal trace.  Returns the paths written.
    """
    written: List[Path] = []
    run = obs.last_run
    causal = getattr(run, "causal", None) if run is not None else None
    if trace_out:
        if run is None:
            raise ValueError("no run was captured; nothing to write to --trace-out")
        dump_trace(
            trace_out, run.trace, run.instants,
            process_name=run.label, causal=causal,
        )
        written.append(Path(trace_out))
        if metrics_out is None:
            metrics_out = str(default_metrics_path(trace_out))
    if metrics_out:
        dump_metrics(metrics_out, obs.registry)
        written.append(Path(metrics_out))
    print(render_report(obs.registry, trace=run.trace if run else None))
    if causal is not None and getattr(causal, "spans", None):
        from repro.obs.causal import iteration_blames, render_blame_table

        print(render_blame_table(iteration_blames(causal.spans), title=run.label))
    for path in written:
        print(f"[observability: wrote {path}]")
    return written
