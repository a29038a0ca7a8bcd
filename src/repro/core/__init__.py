"""FluentPS core: condition-aware synchronization on every server.

The paper's primary contribution.  Public surface:

- :class:`~repro.core.api.ParameterServerSystem` — N workers × M shard
  servers over a flat parameter vector, with SetcondPull/SetcondPush;
- :mod:`~repro.core.models` — BSP/ASP/SSP/DSPS/drop-stragglers/PSSP
  factories (Table I / Table III);
- :class:`~repro.core.server.ShardServer` — Algorithm 1 with lazy pull
  execution and the soft barrier;
- :class:`~repro.core.step.StepContext` — what one worker step reads;
- :mod:`~repro.core.keyspace` — default (PS-Lite) slicing and EPS.
"""

from repro.core.api import ParameterServerSystem, PullResult
from repro.core.conditions import (
    AllPushedPush,
    ASPPull,
    BSPPull,
    DSPSPull,
    PredicatePull,
    PredicatePush,
    PSSPPull,
    PullCondition,
    PushCondition,
    QuorumPush,
    SSPPull,
    SyncView,
)
from repro.core.filters import (
    FilterResult,
    NoFilter,
    PushFilter,
    RandomSparsifier,
    SignificanceFilter,
    TopKFilter,
)
from repro.core.keyspace import (
    Assignment,
    DefaultSlicer,
    ElasticSlicer,
    ModelSpec,
    ShardPiece,
    Slicer,
    TensorSpec,
)
from repro.core.layout import ShardLayout
from repro.core.metrics import SyncMetrics
from repro.core.models import (
    SUPPORTED_MODELS,
    SyncModel,
    asp,
    bsp,
    drop_stragglers,
    dsps,
    dynamic_pssp,
    make_model,
    pssp,
    ssp,
)
from repro.core.pssp import (
    ConstantProbability,
    DynamicProbability,
    effective_staleness_pmf,
    equivalent_ssp_threshold,
    gradient_significance,
    significance_alpha,
)
from repro.core.scheduler import Scheduler
from repro.core.server import (
    ApplyInfo,
    ExecutionMode,
    ProtocolError,
    PullReply,
    ShardServer,
    default_apply,
)
from repro.core.step import StepContext, StepFn

__all__ = [
    "ParameterServerSystem",
    "PullResult",
    "AllPushedPush",
    "ASPPull",
    "BSPPull",
    "DSPSPull",
    "PredicatePull",
    "PredicatePush",
    "PSSPPull",
    "PullCondition",
    "PushCondition",
    "QuorumPush",
    "SSPPull",
    "SyncView",
    "StepContext",
    "StepFn",
    "FilterResult",
    "NoFilter",
    "PushFilter",
    "RandomSparsifier",
    "SignificanceFilter",
    "TopKFilter",
    "Assignment",
    "DefaultSlicer",
    "ElasticSlicer",
    "ModelSpec",
    "ShardPiece",
    "Slicer",
    "TensorSpec",
    "ShardLayout",
    "SyncMetrics",
    "SUPPORTED_MODELS",
    "SyncModel",
    "asp",
    "bsp",
    "drop_stragglers",
    "dsps",
    "dynamic_pssp",
    "make_model",
    "pssp",
    "ssp",
    "ConstantProbability",
    "DynamicProbability",
    "effective_staleness_pmf",
    "equivalent_ssp_threshold",
    "gradient_significance",
    "significance_alpha",
    "Scheduler",
    "ApplyInfo",
    "ExecutionMode",
    "ProtocolError",
    "PullReply",
    "ShardServer",
    "default_apply",
]
