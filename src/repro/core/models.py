"""Synchronization model registry (the FluentPS row of Table I).

A :class:`SyncModel` bundles factories for the pull/push conditions so
that *each server instantiates its own condition state* — the paper's key
structural point: synchronization control lives on every server, not in a
central scheduler, and different servers may run different models for
their parameter shards (Figure 2: server 1 runs SSP, server 2 PSSP,
server M drop-stragglers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.conditions import (
    AllPushedPush,
    ASPPull,
    BSPPull,
    DSPSPull,
    PSSPPull,
    PullCondition,
    PushCondition,
    QuorumPush,
    SSPPull,
)
from repro.core.pssp import AlphaLike, ConstantProbability, DynamicProbability


@dataclass(frozen=True)
class SyncModel:
    """A named synchronization model: per-server condition factories."""

    name: str
    make_pull: Callable[[], PullCondition]
    make_push: Callable[[], PushCondition]
    staleness: float = 0.0
    params: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        return f"{self.name}: pull=[{self.make_pull().describe()}] push=[{self.make_push().describe()}]"


def per_server(sync: Union[SyncModel, Sequence[SyncModel]], n_servers: int) -> List[SyncModel]:
    """One model per server: a single model is shared by every server, a
    sequence must name exactly one per server (Figure 2)."""
    if isinstance(sync, SyncModel):
        return [sync] * n_servers
    models = list(sync)
    if len(models) != n_servers:
        raise ValueError(
            f"need one sync model per server: got {len(models)} for {n_servers} servers"
        )
    return models


def bsp() -> SyncModel:
    """Bulk Synchronous Parallel: full barrier every iteration."""
    return SyncModel("bsp", BSPPull, AllPushedPush, staleness=0)


def asp() -> SyncModel:
    """Asynchronous Parallel: no barrier at all."""
    return SyncModel("asp", ASPPull, AllPushedPush, staleness=math.inf)


def ssp(s: int) -> SyncModel:
    """Stale Synchronous Parallel with staleness threshold ``s``."""
    if not s >= 0:  # NaN too; inf is ASP
        raise ValueError(f"staleness threshold must be >= 0, got {s}")
    return SyncModel(f"ssp(s={s})", lambda: SSPPull(s), AllPushedPush,
                     staleness=s, params={"s": s})


def dsps(
    s0: int = 3,
    s_min: int = 1,
    s_max: int = 16,
    window: int = 64,
    hi_rate: float = 0.25,
    lo_rate: float = 0.05,
) -> SyncModel:
    """Dynamic Synchronous Parallel Strategy: runtime-adjusted staleness."""
    return SyncModel(
        f"dsps(s0={s0})",
        lambda: DSPSPull(s0=s0, s_min=s_min, s_max=s_max, window=window,
                         hi_rate=hi_rate, lo_rate=lo_rate),
        AllPushedPush,
        staleness=s0,
        params={"s0": s0, "s_min": s_min, "s_max": s_max},
    )


def drop_stragglers(n_workers: int, n_t: Optional[int] = None, fraction: float = 0.75) -> SyncModel:
    """Drop stragglers: the frontier advances once ``n_t`` of ``n_workers``
    have pushed; everyone else's late gradients still get applied."""
    if n_t is None:
        n_t = max(1, int(round(fraction * n_workers)))
    if not 1 <= n_t <= n_workers:
        raise ValueError(f"need 1 <= n_t <= n_workers, got n_t={n_t}, N={n_workers}")
    return SyncModel(
        f"drop_stragglers(n_t={n_t})",
        BSPPull,
        lambda: QuorumPush(n_t),
        staleness=0,
        params={"n_t": n_t, "n_workers": n_workers},
    )


def pssp(s: int, c: float) -> SyncModel:
    """Constant PSSP: pause over-threshold workers with probability ``c``.

    c=1 reduces to SSP(s); c=0 reduces to ASP.
    """
    if not s >= 0:  # NaN too; inf is ASP
        raise ValueError(f"staleness threshold must be >= 0, got {s}")
    prob = ConstantProbability(c)
    return SyncModel(
        f"pssp(s={s},c={c})",
        lambda: PSSPPull(s, prob),
        AllPushedPush,
        staleness=s,
        params={"s": s, "c": c},
    )


def dynamic_pssp(s: int, alpha: AlphaLike = 1.0) -> SyncModel:
    """Dynamic PSSP: P(s, k) = α/(1 + e^(s−k)); α constant or a
    significance-driven function (see :func:`repro.core.pssp.significance_alpha`)."""
    if not s >= 0:  # NaN too; inf is ASP
        raise ValueError(f"staleness threshold must be >= 0, got {s}")
    alpha_desc = "fn" if callable(alpha) else alpha
    return SyncModel(
        f"dynamic_pssp(s={s},alpha={alpha_desc})",
        lambda: PSSPPull(s, DynamicProbability(alpha)),
        AllPushedPush,
        staleness=s,
        params={"s": s, "alpha": alpha_desc},
    )


#: Every model FluentPS supports out of the box (Table I, FluentPS row).
SUPPORTED_MODELS = ("bsp", "asp", "ssp", "dsps", "drop_stragglers", "pssp", "dynamic_pssp")


def make_model(kind: str, n_workers: Optional[int] = None, **kwargs) -> SyncModel:
    """Factory keyed by model name — used by benches and examples."""
    kind = kind.lower().replace("-", "_")
    if kind == "bsp":
        return bsp()
    if kind == "asp":
        return asp()
    if kind == "ssp":
        return ssp(**kwargs)
    if kind == "dsps":
        return dsps(**kwargs)
    if kind == "drop_stragglers":
        if n_workers is None:
            raise ValueError("drop_stragglers needs n_workers")
        return drop_stragglers(n_workers=n_workers, **kwargs)
    if kind == "pssp":
        return pssp(**kwargs)
    if kind == "dynamic_pssp":
        return dynamic_pssp(**kwargs)
    raise ValueError(f"unknown synchronization model {kind!r}; supported: {SUPPORTED_MODELS}")
