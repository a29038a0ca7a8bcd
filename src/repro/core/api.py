"""Public FluentPS API: the parameter-server system facade.

A :class:`ParameterServerSystem` wires a model's flat parameter vector
onto M :class:`~repro.core.server.ShardServer` instances through a slicing
assignment, and exposes the paper's worker-side operations:

- ``s_push(worker, progress, update)`` — scatter an update over shards and
  push to every server (Algorithm 1's sPush);
- ``s_pull(worker, progress, on_complete)`` — pull every shard; the
  callback fires with the assembled flat parameters once all M servers
  have responded (sPull + wait), each shard's part as it was when that
  shard answered;
- ``set_cond_pull`` / ``set_cond_push`` — the SetcondPull/SetcondPush
  interfaces for installing per-server (per-shard) conditions at runtime,
  which is how FluentPS "can adjust synchronization models at runtime" and
  run *different* models on different shards (Figure 2).

Update semantics: a worker pushes its local update ``u`` (for plain SGD,
``u = −lr·∇f``); the server applies ``w += u / N`` (Algorithm 1 line 15),
so one global iteration applies the mean update across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.conditions import PredicatePull, PredicatePush, PullCondition, PushCondition
from repro.core.keyspace import ElasticSlicer, ModelSpec, Slicer
from repro.core.layout import ShardLayout
from repro.core.metrics import SyncMetrics
from repro.core.models import SyncModel, per_server
from repro.core.scheduler import Scheduler
from repro.core.server import ApplyInfo, ExecutionMode, PullReply, ShardServer, default_apply
from repro.obs import Observability, current_observability
from repro.utils.checks import check_number, check_seed
from repro.utils.rng import derive_rng


@dataclass
class PullResult:
    """Aggregate of the M per-shard replies for one sPull."""

    worker: int
    progress: int
    params: Optional[np.ndarray]  # None: timing-only shards
    max_missing: int = 0
    total_waited: float = 0.0
    replies: List[PullReply] = field(default_factory=list)


class ParameterServerSystem:
    """N workers × M shard servers over one flat parameter vector."""

    def __init__(
        self,
        model: ModelSpec,
        init_params: Optional[np.ndarray],
        n_workers: int,
        n_servers: int,
        sync_model: Union[SyncModel, Sequence[SyncModel]],
        execution: ExecutionMode = ExecutionMode.LAZY,
        slicer: Optional[Slicer] = None,
        apply_fn: Callable[[np.ndarray, np.ndarray, ApplyInfo], None] = default_apply,
        seed: int = 0,
        obs: Optional[Observability] = None,
        shard_factory: Callable[..., ShardServer] = ShardServer,
    ):
        """``init_params=None`` builds timing-only shards: no parameters,
        no gradients, and pulls complete with ``params=None``.
        ``shard_factory`` is called with :class:`ShardServer`'s keyword
        arguments, once per shard."""
        n_workers = check_number("n_workers", n_workers, 1, integer=True)
        n_servers = check_number("n_servers", n_servers, 1, integer=True)
        if init_params is not None and init_params.shape != (model.total_elements,):
            raise ValueError(
                f"init_params must be flat with {model.total_elements} elements, "
                f"got shape {init_params.shape}"
            )
        self.model = model
        self.n_workers = n_workers
        self.n_servers = n_servers
        self.execution = ExecutionMode(execution)
        self.slicer = slicer or ElasticSlicer()
        self.scheduler = Scheduler(model, self.slicer, n_servers)
        self.layout = ShardLayout(model, self.scheduler.assignment)
        self._clock: Callable[[], float] = lambda: 0.0
        self._sync_model = sync_model
        self._apply_fn = apply_fn
        self._shard_factory = shard_factory
        self._seed = check_seed(seed)
        self.obs = obs or current_observability()
        self._epoch = 0  # bumped by resize; keeps server RNG streams fresh
        self._retired_metrics: List[SyncMetrics] = []

        self.servers: List[ShardServer] = []
        self._build_servers(init_params)
        self._pending_pulls: Dict[int, _PendingPull] = {}

    def _scatter(self, flat: Optional[np.ndarray]) -> Sequence[Optional[np.ndarray]]:
        """``flat`` as per-shard float64 copies (``None``: param-less shards)."""
        if flat is None:
            return [None] * self.n_servers
        return self.layout.scatter(np.asarray(flat, dtype=np.float64))

    def _build_servers(self, flat_params: Optional[np.ndarray]) -> None:
        models = per_server(self._sync_model, self.n_servers)
        shard_vectors = self._scatter(flat_params)
        self.servers = [
            self._shard_factory(
                shard_id=m,
                n_workers=self.n_workers,
                model=models[m],
                execution=self.execution,
                params=shard_vectors[m],
                apply_fn=self._apply_fn,
                clock=self._read_clock,
                rng=self._server_rng(m),
                obs=self.obs,
            )
            for m in range(self.n_servers)
        ]

    def _server_rng(self, m: int) -> np.random.Generator:
        """Shard ``m``'s stream (PSSP coins).  A resized stage names its
        epoch after the shard: SeedSequence zero-pads short keys, so
        ``("server", epoch, m)`` would replay an epoch-0 shard's stream."""
        if self._epoch == 0:
            return derive_rng(self._seed, "server", m)
        return derive_rng(self._seed, "server", m, "epoch", self._epoch)

    # -- clock wiring (runners drive simulated/real time) -------------------

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Drive every shard's clock from ``clock``, including shards a
        simulated run had put on its per-shard lane clocks."""
        self._clock = clock
        for server in self.servers:
            server.clock = self._read_clock

    def _read_clock(self) -> float:
        return self._clock()

    # -- SetcondPull / SetcondPush -------------------------------------------

    def set_cond_pull(
        self,
        server: int,
        cond: Union[PullCondition, Callable],
        staleness: float = 0.0,
    ) -> None:
        """Install a pull condition on one server (paper's SetcondPull).

        ``cond`` may be a :class:`PullCondition` or a plain
        ``f(SyncView) -> bool`` predicate.
        """
        if not isinstance(cond, PullCondition):
            cond = PredicatePull(cond, staleness=staleness)
        self.servers[server].install_conditions(pull=cond)

    def set_cond_push(self, server: int, cond: Union[PushCondition, Callable]) -> None:
        """Install a push condition on one server (paper's SetcondPush)."""
        if not isinstance(cond, PushCondition):
            cond = PredicatePush(cond)
        self.servers[server].install_conditions(push=cond)

    # -- worker-side operations -------------------------------------------------

    def s_push(self, worker: int, progress: int, update: np.ndarray) -> None:
        """Scatter ``update`` over shards and push to every server."""
        shards = self.layout.scatter(np.asarray(update, dtype=np.float64))
        for m, server in enumerate(self.servers):
            server.handle_push(worker, progress, grad=shards[m])

    def s_pull(
        self,
        worker: int,
        progress: int,
        on_complete: Callable[[PullResult], None],
    ) -> None:
        """Pull every shard; ``on_complete`` fires when all M respond.

        With overlap synchronization each shard answers independently —
        a fast shard's reply does not wait for slow shards; the callback
        fires only when the full parameter vector is assembled.  A pull
        a shard refuses leaves nothing in flight.
        """
        pending = _PendingPull(self, worker, progress, on_complete)
        for m, server in enumerate(self.servers):
            server.handle_pull(worker, progress, pending.make_responder(m))
        if pending.remaining:
            self._pending_pulls[id(pending)] = pending

    # -- elastic resharding ------------------------------------------------------

    def resize(self, n_servers: int) -> int:
        """Elastically change the server count at a stage boundary.

        FlexPS-style multi-stage semantics: call between training stages,
        when the system is quiescent (no buffered DPRs, no in-flight
        pulls).  The global parameter values carry over; the slicer
        re-shards them (EPS rebalances with minimal movement); per-shard
        synchronization state resets for the new stage (workers restart
        their progress from 0).  Returns the bytes moved between servers.
        """
        if n_servers < 1:
            raise ValueError("need at least one server")
        if self.total_buffered() or self._pending_pulls:
            raise RuntimeError(
                "resize requires quiescence: "
                f"{self.total_buffered()} buffered DPRs, "
                f"{len(self._pending_pulls)} in-flight pulls"
            )
        if not isinstance(self._sync_model, SyncModel) and n_servers != self.n_servers:
            raise ValueError(
                "per-server model lists cannot be resized; use a single model"
            )
        params = self.current_params()
        old_assignment = self.scheduler.assignment
        self.scheduler.resize(n_servers)
        moved = old_assignment.moved_bytes(self.scheduler.assignment)
        self.layout = ShardLayout(self.model, self.scheduler.assignment)
        self._retired_metrics.append(SyncMetrics.merge_all(s.metrics for s in self.servers))
        self.n_servers = n_servers
        self._epoch += 1
        self._build_servers(params)
        return moved

    # -- checkpointing ------------------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot the full system state at a quiescent point.

        Captures parameters plus every shard's synchronization state
        (frontier, counts, per-worker progress), so a restored system
        continues the *same* training run — unlike :meth:`resize`, which
        starts a fresh stage.
        """
        if self.total_buffered() or self._pending_pulls:
            raise RuntimeError("checkpoint requires quiescence (buffered/in-flight pulls)")
        return {
            "params": self.current_params(),
            "epoch": self._epoch,
            "n_servers": self.n_servers,
            "shards": [
                {
                    "v_train": s.v_train,
                    "version": s.version,
                    "count": dict(s.count),
                    "worker_progress": list(s.worker_progress),
                    "last_significance": s.last_significance,
                }
                for s in self.servers
            ],
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`checkpoint` (server-failure recovery)."""
        if state["n_servers"] != self.n_servers:
            raise ValueError(
                f"checkpoint taken with {state['n_servers']} servers, "
                f"system has {self.n_servers}; resize first"
            )
        if self.total_buffered() or self._pending_pulls:
            raise RuntimeError("restore requires quiescence")
        shard_vectors = self._scatter(state["params"])
        for server, shard_state, vec in zip(self.servers, state["shards"], shard_vectors):
            server.handle_restore(shard_state, params=vec)

    # -- introspection ---------------------------------------------------------

    def current_params(self) -> Optional[np.ndarray]:
        """Gather the servers' live shard vectors into one flat vector
        (``None``: timing-only shards)."""
        shards = [s.params for s in self.servers]
        return None if shards[0] is None else self.layout.gather(shards)

    def merged_metrics(self) -> SyncMetrics:
        """All synchronization metrics, including pre-resize stages."""
        live = SyncMetrics.merge_all(s.metrics for s in self.servers)
        return SyncMetrics.merge_all(self._retired_metrics + [live])

    def total_buffered(self) -> int:
        return sum(s.buffered_pulls for s in self.servers)

    def describe(self) -> str:
        lines = [
            f"ParameterServerSystem: {self.n_workers} workers x {self.n_servers} servers, "
            f"execution={self.execution.value}, "
            f"imbalance={self.scheduler.assignment.imbalance():.3f}"
        ]
        lines.extend("  " + s.describe() for s in self.servers)
        return "\n".join(lines)


class _PendingPull:
    """Collects the M shard replies of one sPull and assembles the vector."""

    def __init__(
        self,
        system: ParameterServerSystem,
        worker: int,
        progress: int,
        on_complete: Callable[[PullResult], None],
    ):
        self.system = system
        self.worker = worker
        self.progress = progress
        self.on_complete = on_complete
        self.flat = (
            None if system.servers[0].params is None
            else np.empty(system.model.total_elements, dtype=np.float64)
        )
        self.replies: List[Optional[PullReply]] = [None] * system.n_servers
        self.remaining = system.n_servers

    def make_responder(self, server_idx: int) -> Callable[[PullReply], None]:
        shard = self.system.servers[server_idx]

        def respond(reply: PullReply) -> None:
            if self.replies[server_idx] is not None:
                raise RuntimeError(f"server {server_idx} responded twice to one pull")
            self.replies[server_idx] = reply
            if self.flat is not None:
                # The shard is answering: its live values are the reply's ``version``.
                self.system.layout.gather_into(self.flat, server_idx, shard.params)
            self.remaining -= 1
            if self.remaining == 0:
                self.system._pending_pulls.pop(id(self), None)
                replies = [r for r in self.replies if r is not None]
                self.on_complete(
                    PullResult(
                        worker=self.worker,
                        progress=self.progress,
                        params=self.flat,
                        max_missing=max(r.missing for r in replies),
                        total_waited=sum(r.waited for r in replies),
                        replies=replies,
                    )
                )

        return respond
