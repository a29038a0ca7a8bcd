"""Experiment harness shared by benchmarks/ and examples/.

One function per paper figure/table lives in :mod:`repro.bench.figures`
and :mod:`repro.bench.tables`; each accepts a :class:`repro.bench.harness.Scale`
so the same code runs at CI speed (``QUICK``) or near paper scale
(``PAPER``).  Benchmarks are thin pytest wrappers that call these and
assert the paper's qualitative shape.
"""

from repro.bench.harness import PAPER, QUICK, Scale, resolve_scale
from repro.bench.workloads import blobs_task, cifar_proxy_task, no_network_config, null_task_spec

__all__ = [
    "PAPER",
    "QUICK",
    "Scale",
    "resolve_scale",
    "blobs_task",
    "cifar_proxy_task",
    "no_network_config",
    "null_task_spec",
]
