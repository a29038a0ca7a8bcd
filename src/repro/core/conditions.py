"""Pull/push conditions — the condition-aware synchronization methodology.

FluentPS implements every synchronization model by specifying only two
predicates per server (Algorithm 1 / Table III):

- the **pull condition** decides whether a pull is answered now or becomes
  a *delayed pull request* (DPR) in the lazy pull buffer;
- the **push condition** decides, after a push is applied, whether the
  shard's training frontier ``V_train`` advances (flushing the DPRs
  buffered at the old frontier).

Progress semantics used throughout this codebase (reconciling the paper's
Algorithm 1, Table III and Figure 3):

- a worker pulling with ``progress = p`` has pushed gradients for
  iterations ``0..p`` and requests the parameters for iteration ``p+1``;
- ``v_train`` is a *frontier*: every worker has pushed every iteration
  ``< v_train`` (initially 0);
- SSP answers a pull iff ``p < v_train + s`` — so ``s = 0`` is exactly BSP
  (Table III's BSP row) and ``s = ∞`` is ASP.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Mapping, Optional

import numpy as np

from repro.core.pssp import ProbabilityModel, SignificanceView
from repro.utils.checks import check_number


def declared_together(obj: object, *names: str) -> bool:
    """Whether the class that defines each of ``names`` for ``obj`` is one
    and the same, and ``obj`` sets none of them on itself: a capability
    holds only for the behaviour its class declares it with, so a subclass
    that overrides the behaviour alone does not inherit the capability."""
    owners = {next((c for c in type(obj).__mro__ if name in vars(c)), None) for name in names}
    on_instance = getattr(obj, "__dict__", {}).keys() & set(names)
    return len(owners) == 1 and None not in owners and not on_instance


class SyncView:
    """Read-only synchronization state a condition may inspect.

    This is the paper's "interfaces also expose details of the
    synchronization state, e.g., the progress of fastest/slowest worker,
    the number of workers that have pushed gradients in a specified
    iteration" — developers write new models against this view.
    """

    __slots__ = (
        "progress",
        "worker",
        "v_train",
        "n_workers",
        "count",
        "fastest",
        "slowest",
        "_significance",
        "rng",
        "catch_up",
    )

    def __init__(
        self,
        progress: int,
        worker: int,
        v_train: int,
        n_workers: int,
        count: Mapping[int, int],
        fastest: int,
        slowest: int,
        significance: float,
        rng: np.random.Generator,
    ):
        self.progress = progress
        self.worker = worker
        self.v_train = v_train
        self.n_workers = n_workers
        self.count = count
        self.fastest = fastest
        self.slowest = slowest
        self._significance = significance
        self.rng = rng
        #: The replay holding the shard's values, asked for the significance.
        self.catch_up: Optional[Callable[[], float]] = None

    @property
    def significance(self) -> float:
        """|g|/|w| of the shard's last applied push (paper §III-E2)."""
        return self._significance if self.catch_up is None else self.catch_up()

    @property
    def gap(self) -> int:
        """Over-frontier gap of the requesting worker."""
        return self.progress - self.v_train

    def pushed(self, iteration: int) -> int:
        """Workers that have pushed gradients for ``iteration``."""
        return self.count.get(iteration, 0)


class PullCondition(abc.ABC):
    """Returns True when the server should answer the pull immediately."""

    #: Protocol family tag carried in the server's event stream; the
    #: ``repro.analysis`` sanitizer keys its staleness-bound checks on it
    #: ("custom" disables the mechanical bound).  User-defined conditions
    #: with SSP semantics may override this to opt back in.
    kind: str = "custom"

    #: Whether the decision reads a parameter-derived field of the view
    #: (``significance``): the run's timing is then a function of the
    #: gradient values, and on a simulated run each such read catches the
    #: replay up to the shard's current version (:mod:`repro.core.replay`).
    reads_values: bool = False

    #: Over-threshold coin flips so far: a condition that decides a pull by
    #: a coin (PSSP) counts each one, and the server marks what it decided
    #: as probabilistic.
    coin_flips: int = 0

    @abc.abstractmethod
    def __call__(self, view: SyncView) -> bool: ...

    def staleness(self) -> float:
        """Current nominal staleness threshold (∞ for ASP); used to index
        soft-barrier DPR buffers and for reporting."""
        return 0.0

    def quiet_bound(self) -> Optional[float]:
        """The ``s`` such that a pull is answered at once, with no side
        effect and no coin, iff ``progress < v_train + s``, and such that
        at ``s = 0`` every other pull is buffered until the frontier
        advances; None when no such ``s`` exists.  The round collapse
        commits rounds in closed form on it (:meth:`committed_bound`)."""
        return None

    def committed_bound(self) -> Optional[float]:
        """:meth:`quiet_bound`, when the class that defines ``__call__``
        declares it too (:func:`declared_together`); else None."""
        return self.quiet_bound() if declared_together(self, "__call__", "quiet_bound") else None

    def pssp_c(self) -> Optional[float]:
        """The constant PSSP pause probability c, or None: carried in the
        server's ``server_config`` event so trace consumers can derive the
        effective bound s' = s + 1/c − 1 (paper §III-E1)."""
        return None

    def describe(self) -> str:
        return type(self).__name__


class PushCondition(abc.ABC):
    """Returns True when the frontier should advance past ``view.v_train``."""

    #: As :attr:`PullCondition.reads_values`.
    reads_values: bool = False

    @abc.abstractmethod
    def __call__(self, view: SyncView) -> bool: ...

    def quorum(self, n_workers: int) -> Optional[int]:
        """Pushes of the frontier iteration required before an advance, or
        None when the rule is not a simple count (custom predicates) — the
        sanitizer then skips its frontier-overrun check."""
        return None

    def committed_quorum(self, n_workers: int) -> Optional[int]:
        """:meth:`quorum`, when the class that defines ``__call__`` declares
        it too (:func:`declared_together`) — the round collapse relies on
        it; else None."""
        return self.quorum(n_workers) if declared_together(self, "__call__", "quorum") else None

    def describe(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------------------
# Pull conditions (Table III, left column)
# ---------------------------------------------------------------------------


class SSPPull(PullCondition):
    """progress < V_train + s.  s=0 ⇒ BSP, s=∞ ⇒ ASP."""

    kind = "ssp"

    def __init__(self, s: float):
        if not s >= 0:  # NaN too; inf is ASP
            raise ValueError(f"staleness threshold must be >= 0, got {s}")
        self.s = s

    def __call__(self, view: SyncView) -> bool:
        return view.progress < view.v_train + self.s

    def staleness(self) -> float:
        return self.s

    def quiet_bound(self) -> Optional[float]:
        return self.s

    def describe(self) -> str:
        if self.s == 0:
            return "BSP (progress < V_train)"
        if math.isinf(self.s):
            return "ASP (always)"
        return f"SSP (progress < V_train + {self.s})"


class BSPPull(SSPPull):
    """Bulk Synchronous Parallel: full barrier each iteration."""

    def __init__(self) -> None:
        super().__init__(0)


class ASPPull(SSPPull):
    """Asynchronous Parallel: never block."""

    def __init__(self) -> None:
        super().__init__(math.inf)


class PSSPPull(PullCondition):
    """Probabilistic SSP: below the threshold answer immediately; at or
    above it, pause only with probability P (Table III's
    ``progress < V_train + s or rand(0,1) > P``)."""

    kind = "pssp"

    def __init__(self, s: float, prob: ProbabilityModel):
        if not s >= 0:  # NaN too; inf is ASP
            raise ValueError(f"staleness threshold must be >= 0, got {s}")
        self.s = s
        self.prob = prob
        self.paused = 0

    def __call__(self, view: SyncView) -> bool:
        if view.progress < view.v_train + self.s:
            return True
        sig = view.significance if self.prob.reads_values else 0.0  # read only if used
        sig_view = SignificanceView(sig, view.gap, self.s)
        p = self.prob.probability(self.s, view.gap, sig_view)
        self.coin_flips += 1
        if view.rng.random() < p:
            self.paused += 1
            return False
        return True

    @property
    def reads_values(self) -> bool:
        return self.prob.reads_values

    def staleness(self) -> float:
        return self.s

    def quiet_bound(self) -> Optional[float]:
        # At s = 0 every pull flips a coin.
        return self.s if self.s > 0 else None

    def pssp_c(self) -> Optional[float]:
        return self.prob.constant_c()

    def describe(self) -> str:
        return f"PSSP (s={self.s}, P={self.prob.describe()})"


class DSPSPull(PullCondition):
    """Dynamic Synchronous Parallel Strategy: SSP with a runtime-adjusted
    staleness threshold (paper's citation [25]).

    A windowed controller widens ``s`` when the block rate is high (the
    cluster is noisy — let fast workers run) and narrows it when blocks
    are rare (keep parameters fresh).  The server calls
    :meth:`observe` with each pull outcome.
    """

    kind = "dsps"

    def __init__(
        self,
        s0: int = 3,
        s_min: int = 1,
        s_max: int = 16,
        window: int = 64,
        hi_rate: float = 0.25,
        lo_rate: float = 0.05,
    ):
        for name, value in (("s0", s0), ("s_min", s_min), ("s_max", s_max)):
            check_number(name, value, integer=True)
        if not s_min <= s0 <= s_max:
            raise ValueError(f"need s_min <= s0 <= s_max, got {s_min},{s0},{s_max}")
        check_number("window", window, 1, integer=True)
        if not 0 <= lo_rate <= hi_rate <= 1:
            raise ValueError("need 0 <= lo_rate <= hi_rate <= 1")
        self.s = s0
        self.s_min = s_min
        self.s_max = s_max
        self.window = window
        self.hi_rate = hi_rate
        self.lo_rate = lo_rate
        self._pulls = 0
        self._blocks = 0
        self.adjustments = 0

    def __call__(self, view: SyncView) -> bool:
        ok = view.progress < view.v_train + self.s
        self.observe(blocked=not ok)
        return ok

    def observe(self, blocked: bool) -> None:
        self._pulls += 1
        if blocked:
            self._blocks += 1
        if self._pulls >= self.window:
            rate = self._blocks / self._pulls
            if rate > self.hi_rate and self.s < self.s_max:
                self.s += 1
                self.adjustments += 1
            elif rate < self.lo_rate and self.s > self.s_min:
                self.s -= 1
                self.adjustments += 1
            self._pulls = 0
            self._blocks = 0

    def staleness(self) -> float:
        return self.s

    def describe(self) -> str:
        return f"DSPS (s∈[{self.s_min},{self.s_max}], current={self.s})"


# ---------------------------------------------------------------------------
# Push conditions (Table III, right column)
# ---------------------------------------------------------------------------


class AllPushedPush(PushCondition):
    """Count[V_train] == N: the frontier advances when every worker has
    pushed the frontier iteration."""

    def __call__(self, view: SyncView) -> bool:
        return view.pushed(view.v_train) >= view.n_workers

    def quorum(self, n_workers: int) -> Optional[int]:
        return n_workers

    def describe(self) -> str:
        return "Count[V_train] == N"


class QuorumPush(PushCondition):
    """Count[V_train] == N_t: drop stragglers — all workers may enter the
    next iteration once any N_t workers have pushed (paper's citation
    [19], 'Revisiting distributed synchronous SGD')."""

    def __init__(self, n_t: int):
        self.n_t = check_number("quorum", n_t, 1, integer=True)

    def __call__(self, view: SyncView) -> bool:
        return view.pushed(view.v_train) >= self.n_t

    def quorum(self, n_workers: int) -> Optional[int]:
        return self.n_t

    def describe(self) -> str:
        return f"Count[V_train] == N_t ({self.n_t})"


class FractionPush(QuorumPush):
    """Quorum expressed as a fraction of the worker count."""

    def __init__(self, fraction: float, n_workers: int):
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        super().__init__(max(1, int(round(fraction * n_workers))))


class PredicatePull(PullCondition):
    """Adapter turning a plain ``f(view) -> bool`` into a pull condition —
    the SetcondPull escape hatch for user-defined models.  ``fn`` may read
    any field of the view, ``significance`` included."""

    reads_values = True

    def __init__(self, fn, staleness: float = 0.0, name: Optional[str] = None):
        self.fn = fn
        self._staleness = staleness
        self._name = name or getattr(fn, "__name__", "custom")

    def __call__(self, view: SyncView) -> bool:
        return bool(self.fn(view))

    def staleness(self) -> float:
        return self._staleness

    def describe(self) -> str:
        return f"custom pull ({self._name})"


class PredicatePush(PushCondition):
    """Adapter turning a plain ``f(view) -> bool`` into a push condition."""

    reads_values = True

    def __init__(self, fn, name: Optional[str] = None):
        self.fn = fn
        self._name = name or getattr(fn, "__name__", "custom")

    def __call__(self, view: SyncView) -> bool:
        return bool(self.fn(view))

    def describe(self) -> str:
        return f"custom push ({self._name})"
