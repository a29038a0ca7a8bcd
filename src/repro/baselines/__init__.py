"""Baseline parameter-server systems the paper compares against.

- :mod:`repro.baselines.pslite` — PS-Lite: centralized scheduler in the
  synchronization path, **non-overlap** synchronization (Figure 5a), and
  the default range-partition slicing that leaves servers imbalanced;
- :mod:`repro.baselines.sspable` — Bösen/PMLS-Caffe's SSPtable: worker-
  side parameter caches with clock-based invalidation, whose consistency
  maintenance degrades convergence at scale (Figures 1 and 7).
"""

from repro.baselines.pslite import PSLiteSimRunner, run_pslite
from repro.baselines.specsync import SpecSyncConfig, SpecSyncRunner
from repro.baselines.sspable import SSPTableConfig, SSPTableRunner, run_ssptable

__all__ = [
    "PSLiteSimRunner",
    "run_pslite",
    "SpecSyncConfig",
    "SpecSyncRunner",
    "SSPTableConfig",
    "SSPTableRunner",
    "run_ssptable",
]
