"""FluentPS reproduction: a parameter-server design with low-frequency
synchronization for distributed deep learning (Yao, Wu, Wang — CLUSTER 2019).

Package map:

- :mod:`repro.core` — the FluentPS contribution: condition-aware per-server
  synchronization, lazy pull execution, PSSP, EPS slicing;
- :mod:`repro.sim` — discrete-event cluster simulator (the hardware
  substrate) and the co-simulation runner;
- :mod:`repro.ml` — pure-NumPy MLPs (Dense/ReLU/Flatten, softmax-CE, SGD
  with momentum), AlexNet/ResNet-56 as shape specs, and synthetic
  CIFAR-like datasets;
- :mod:`repro.baselines` — PS-Lite and Bösen/SSPtable comparison systems;
- :mod:`repro.parallel` — real-thread parameter-server runner;
- :mod:`repro.theory` — SSP/PSSP regret bounds (Theorems 1-2);
- :mod:`repro.bench` — shared experiment harness used by benchmarks/.
"""

__version__ = "1.0.0"

from repro.core import (
    ExecutionMode,
    ParameterServerSystem,
    asp,
    bsp,
    drop_stragglers,
    dsps,
    dynamic_pssp,
    make_model,
    pssp,
    ssp,
)

__all__ = [
    "__version__",
    "ExecutionMode",
    "ParameterServerSystem",
    "asp",
    "bsp",
    "drop_stragglers",
    "dsps",
    "dynamic_pssp",
    "make_model",
    "pssp",
    "ssp",
]
