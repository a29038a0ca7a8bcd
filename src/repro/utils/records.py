"""Lightweight result records shared by the benchmark harness and examples.

A :class:`RunRecord` captures the scalar outcome of one experiment arm
(one synchronization model at one cluster size); a :class:`SeriesRecord`
captures a curve (accuracy vs. time, DPRs vs. iteration).  Both serialize
to plain dicts so benches can dump JSON next to their printed tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class RunRecord:
    """Scalar outcome of one experiment arm."""

    name: str
    params: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "params": dict(self.params), "metrics": dict(self.metrics)}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "RunRecord":
        return cls(name=str(d["name"]), params=dict(d.get("params", {})),
                   metrics={k: float(v) for k, v in dict(d.get("metrics", {})).items()})


@dataclass
class SeriesRecord:
    """A named curve: parallel ``x`` and ``y`` sequences."""

    name: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)
    x_label: str = "x"
    y_label: str = "y"

    def append(self, x: float, y: float) -> None:
        self.x.append(float(x))
        self.y.append(float(y))

    def __len__(self) -> int:
        return len(self.x)

    def final(self) -> float:
        if not self.y:
            raise ValueError(f"series {self.name!r} is empty")
        return self.y[-1]

    def best(self) -> float:
        if not self.y:
            raise ValueError(f"series {self.name!r} is empty")
        return max(self.y)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "x": list(self.x),
            "y": list(self.y),
            "x_label": self.x_label,
            "y_label": self.y_label,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "SeriesRecord":
        return cls(
            name=str(d["name"]),
            x=[float(v) for v in d.get("x", [])],
            y=[float(v) for v in d.get("y", [])],
            x_label=str(d.get("x_label", "x")),
            y_label=str(d.get("y_label", "y")),
        )
