"""DPOR-style schedule exploration for the co-simulated FluentPS protocol.

The sanitizer certifies the paper's invariants (S001-S015, CS01-CS04) on
exactly one seeded schedule per run.  This module turns that into bounded
*stateless model checking*: it drives the engine's commutation points —
the same-timestamp tie-break hook (:meth:`repro.sim.engine.Engine.set_choice_hook`)
plus optional bounded delivery perturbation
(:attr:`repro.sim.network.Network.delay_hook`) — and systematically
enumerates inequivalent schedules, replaying every one through the full
sanitizer and byte-comparing final parameters across equivalent
schedules.

Independence relation (dynamic partial-order reduction)
-------------------------------------------------------
The runner dispatches directly: a request is *handled inside its ``rx``
event* (the delivery event hands the message to the shard's sink), so the
order of ``rx`` events at one destination **is** that server's handling
order — and with it coin-flip consumption, DPR buffering and update
application order.  Two tied events *conflict* (their order can matter)
only when they race for the same per-node FIFO:

- ``rx`` events at the **same destination** conflict: whichever runs
  first is handled (server) or counted (worker gather) first.
- ``tx`` events (TX-lane completion) to the same destination conflict
  only under a delay perturbation: whichever runs first claims the
  destination's RX cursor first, which on the zero-hold exploration
  cluster is observable only once a delay advances that cursor.
- Everything else — events on different nodes, wire events for different
  destinations, local compute resumes, a worker's resume after its reply
  gather closes (it touches only that worker's state) — commutes:
  swapping them yields the same per-destination delivery order, i.e. the
  same Mazurkiewicz trace.

The relation is complete for this event structure: exhaustive search
reaches exactly the closed-form number of per-destination delivery
orders, one run per schedule (``tests/test_analysis_explore.py``).

The explorer branches only on conflicting alternatives inside each tie
group; commuting alternatives are counted as *pruned*.  Every explored
schedule is fingerprinted by its per-destination delivery order (the
dependency signature); schedules with equal signatures are equivalent by
construction and must produce byte-identical final parameters — any
mismatch is reported as **X001** (engine nondeterminism).  A schedule
that crashes the runner (e.g. a synchronization deadlock) is reported as
**X002**.

Counterexamples are delta-minimized (greedy ddmin-lite: re-run with each
non-default choice restored to the default, keep the reduction while the
same violation class reproduces) and serialized as a replayable
choice-trace: ``python -m repro.analysis --replay trace.json`` re-runs
the exact schedule and must reproduce the violation deterministically.

The tests keep the find → minimize → replay path honest with a seeded
bug: ``tests/mutants.py::weak_staleness`` swaps the ``ssp`` preset for one
that answers pulls one iteration beyond its advertised bound (S004).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.sanitizer import SanitizerReport, Violation, sanitize_observability
from repro.core.models import SyncModel, pssp, ssp
from repro.core.server import ExecutionMode
from repro.obs import MetricsRegistry, Observability, observed
from repro.sim.network import Message
from repro.sim.stragglers import DeterministicCompute, HeterogeneousCompute

#: Exploration presets: sync model x execution mode cells small enough to
#: tie constantly (symmetric workers) yet exercise distinct protocol paths.
PRESETS: Dict[str, Tuple[str, Callable[[], SyncModel], ExecutionMode]] = {
    "ssp": ("ssp(1) under the soft barrier", lambda: ssp(1), ExecutionMode.SOFT_BARRIER),
    "pssp": ("pssp(1, c=0.5), lazy execution", lambda: pssp(1, 0.5), ExecutionMode.LAZY),
    # ssp(0) makes every pull that beats its peer's push a DPR, so lazy
    # buffering/flush and the 0-missing guarantee are on the hot path.
    "lazy": ("ssp(0), lazy execution (DPR-heavy)", lambda: ssp(0), ExecutionMode.LAZY),
}


@dataclass
class ExploreConfig:
    """One bounded exploration: the run shape plus the search budget.

    The run-shape fields (everything except the budgets) fully determine
    a schedule given a choice prefix — they are what a
    :class:`ChoiceTrace` serializes for replay.
    """

    preset: str = "ssp"
    n_workers: int = 2
    n_servers: int = 2
    max_iter: int = 4
    seed: int = 0
    #: 0 → identical deterministic workers (maximum ties); > 0 → persistent
    #: per-worker slowdown spread (grows real progress gaps, the regime
    #: where staleness bugs manifest).
    spread: float = 0.0
    #: Bounded delivery perturbation: extra RX-hold seconds per message id.
    delays: Dict[int, float] = field(default_factory=dict)
    #: Search budget: maximum schedules (runs) to execute.
    max_schedules: int = 200
    #: Depth cap: decision points recorded per run (beyond it: FIFO).
    max_decisions: int = 400
    #: Stop once this many inequivalent schedules were seen (None = never).
    target_inequivalent: Optional[int] = None

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; have {sorted(PRESETS)}")

    def run_params(self) -> Dict[str, Any]:
        """The JSON-safe run-shape subset that a choice trace pins down."""
        return {
            "preset": self.preset,
            "n_workers": self.n_workers,
            "n_servers": self.n_servers,
            "max_iter": self.max_iter,
            "seed": self.seed,
            "spread": self.spread,
            "delays": {str(k): v for k, v in self.delays.items()},
        }

    @classmethod
    def from_run_params(cls, doc: Dict[str, Any]) -> "ExploreConfig":
        return cls(
            preset=doc["preset"],
            n_workers=int(doc["n_workers"]),
            n_servers=int(doc["n_servers"]),
            max_iter=int(doc["max_iter"]),
            seed=int(doc["seed"]),
            spread=float(doc.get("spread", 0.0)),
            delays={int(k): float(v) for k, v in doc.get("delays", {}).items()},
        )


# -- event labels and the independence relation ---------------------------


#: The wire's two per-message callbacks (``Network``), by function name.
_WIRE_KINDS = {"_fast_tx_done": "tx", "_deliver": "rx"}


def _label(entry: Tuple) -> Tuple:
    """Stable identity of one heap entry for decisions and replay checks.

    Wire events carry the message coordinates; everything else is local
    (``(local, fn, seq)`` — unique, hence independent of everything).
    A wire callback this module does not know raises: classifying it by
    default would silently change what the search branches on.
    """
    fn, arg = entry[2], entry[3]
    if type(arg) is tuple and arg and arg[0].__class__ is Message:
        msg = arg[0]
        name = getattr(fn, "__name__", "?")
        kind = _WIRE_KINDS.get(name)
        if kind is None:
            raise ValueError(f"unknown wire callback {name!r}; have {sorted(_WIRE_KINDS)}")
        return (kind, msg.tag, msg.src, msg.dst, msg.msg_id)
    if arg.__class__ is Message:
        return ("deliver", arg.tag, arg.src, arg.dst, arg.msg_id)
    return ("local", getattr(fn, "__qualname__", "?"), entry[1])


def _conflict_key(label: Tuple, tx_conflicts: bool = False) -> Optional[Tuple]:
    """Events conflict iff their keys are equal (None = conflicts with
    nothing): wire events racing for the same destination FIFO.

    An ``rx`` event handles its request (or counts its reply) inside the
    event, so ``rx`` order at a destination is handling order.  On the
    zero-hold exploration cluster a ``tx`` event's RX-cursor claim is a
    no-op (``rx_end == arrival`` regardless of claim order), so tx ties
    commute — unless a delay perturbation is active, which advances the
    cursor and makes claim order observable again (``tx_conflicts=True``).
    """
    kind = label[0]
    if kind == "rx" or (kind == "tx" and tx_conflicts):
        return (kind, label[3])  # (kind, dst)
    # ``local`` events commute: a compute resume, or a worker's resume
    # after its reply gather closed, touches only that worker's state.
    return None


def _fifo_ok(labels: Sequence[Tuple], j: int) -> bool:
    """Running candidate ``j`` first must not reorder one (src, dst)
    pair's messages (the per-pair FIFO the protocol relies on).  Positive
    lane holds make same-pair ties impossible in practice; this is the
    defensive guard that keeps the explorer inside the wire contract."""
    lj = labels[j]
    if lj[0] == "local":
        return True
    for k, lk in enumerate(labels):
        if (
            k != j
            and lk[0] == lj[0]
            and lk[2] == lj[2]
            and lk[3] == lj[3]
            and lk[4] < lj[4]
        ):
            return False
    return True


@dataclass
class _Decision:
    """One consulted tie group: candidate labels (seq order) + the pick."""

    labels: List[Tuple]
    chosen: int


class _ChoiceController:
    """The engine choice hook: scripted prefix, FIFO default beyond it.

    Records every consulted tie group so the explorer can branch on
    conflicting alternatives, and (during replay) cross-checks the chosen
    candidate's label against the trace to detect drift.
    """

    def __init__(
        self,
        prefix: Sequence[int],
        max_decisions: int,
        expected_labels: Optional[Sequence[Sequence[Any]]] = None,
    ):
        self.prefix = list(prefix)
        self.max_decisions = max_decisions
        self.expected = expected_labels
        self.decisions: List[_Decision] = []
        self.mismatches: List[str] = []
        self.truncated = False

    def __call__(self, when: float, group: List[Tuple]) -> int:
        idx = len(self.decisions)
        if idx >= self.max_decisions:
            self.truncated = True
            return 0
        labels = [_label(e) for e in group]
        choice = self.prefix[idx] if idx < len(self.prefix) else 0
        if not 0 <= choice < len(group):
            self.mismatches.append(
                f"decision {idx}: trace chose {choice} of a {len(group)}-way tie"
            )
            choice = 0
        if self.expected is not None and idx < len(self.expected):
            want = list(self.expected[idx])
            got = list(labels[choice])
            if got != want:
                self.mismatches.append(
                    f"decision {idx}: replay chose {got}, trace recorded {want}"
                )
        self.decisions.append(_Decision(labels, choice))
        return choice


# -- running one schedule --------------------------------------------------


@dataclass
class _Outcome:
    """Everything one scheduled run produced."""

    decisions: List[_Decision]
    report: SanitizerReport
    signature: str
    params_digest: str
    error: Optional[str] = None
    truncated: bool = False
    mismatches: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or not self.report.ok

    def violation_codes(self) -> List[str]:
        codes = [v.code for v in self.report.violations]
        if self.error is not None:
            codes.append("X002")
        return codes


def _race_cluster(n_workers: int, n_servers: int):
    """A cluster whose only delay is propagation: zero NIC holds keep
    logically-concurrent messages tied at the same instant, so ordering
    nondeterminism shows up as engine tie groups instead of being frozen
    into a timing skew the checker can't commute."""
    from repro.sim.cluster import ClusterSpec, NodeSpec
    from repro.sim.network import NicSpec

    nic = NicSpec(bandwidth_Bps=float("inf"), overhead_s=0.0)
    return ClusterSpec(
        name=f"explore-{n_workers}w{n_servers}s",
        workers=[
            NodeSpec(name=f"worker{i}", flops=1e12, nic=nic) for i in range(n_workers)
        ],
        servers=[
            NodeSpec(name=f"server{i}", flops=1e12, nic=nic) for i in range(n_servers)
        ],
        latency_s=100e-6,
    )


def _sim_config(cfg: ExploreConfig):
    from repro.bench.workloads import blobs_task
    from repro.sim.runner import SimConfig

    _desc, make_model, execution = PRESETS[cfg.preset]
    model = make_model()
    # Tiny real-gradient task: final parameters are a byte-comparable
    # function of the update application order each schedule induces.
    task = blobs_task(
        cfg.n_workers, n_classes=4, dim=8, hidden=(8,),
        n_train=64, n_test=32, batch_size=8, seed=cfg.seed + 17,
    )
    compute = (
        DeterministicCompute()
        if cfg.spread <= 0
        else HeterogeneousCompute(cfg.n_workers, spread=cfg.spread, jitter_sigma=0.0)
    )
    return SimConfig(
        cluster=_race_cluster(cfg.n_workers, cfg.n_servers),
        max_iter=cfg.max_iter,
        sync=model,
        execution=execution,
        compute_model=compute,
        base_compute_time=0.005,
        task=task,
        seed=cfg.seed,
        # Zero per-request costs: server handling stays inside the tie
        # group its deliveries arrived in (ordering freedom, no skew).
        server_op_overhead_s=0.0,
        dpr_overhead_s=0.0,
        # Keep periodic scrapes far out of the protocol's tie groups.
        snapshot_interval_s=10.0,
    )


def _run_schedule(
    cfg: ExploreConfig,
    prefix: Sequence[int],
    expected_labels: Optional[Sequence[Sequence[Any]]] = None,
) -> _Outcome:
    """Execute one fully-determined schedule and sanitize it."""
    from repro.sim.runner import FluentPSSimRunner

    controller = _ChoiceController(prefix, cfg.max_decisions, expected_labels)
    deliveries: List[Tuple[str, str, str, int]] = []
    pair_counts: Dict[Tuple[str, str], int] = {}

    def record_delivery(msg: Message) -> None:
        # Fingerprint by per-pair sequence number, not msg_id: pair FIFO
        # makes the k-th delivered message of a pair the k-th sent, so
        # the label is stable across schedules that renumber sends.
        pair = (msg.src, msg.dst)
        n = pair_counts.get(pair, 0)
        pair_counts[pair] = n + 1
        deliveries.append((msg.dst, msg.src, msg.tag, n))

    obs = Observability(MetricsRegistry("explore"))
    error: Optional[str] = None
    params_digest = ""
    with observed(obs):
        runner = FluentPSSimRunner(_sim_config(cfg))
        runner.engine.set_choice_hook(controller)
        runner.net.on_delivery(record_delivery)
        if cfg.delays:
            delays = cfg.delays
            runner.net.delay_hook = lambda msg: delays.get(msg.msg_id, 0.0)
        try:
            result = runner.run()
        except Exception as exc:  # deadlock / engine fault: a finding
            error = f"{type(exc).__name__}: {exc}"
        else:
            if result.final_params is not None:
                params_digest = hashlib.sha256(
                    result.final_params.tobytes()
                ).hexdigest()
    report = sanitize_observability(obs)
    # Per-destination delivery order is the dependency signature: equal
    # signatures <=> equivalent schedules under the independence relation.
    per_dst: Dict[str, List[Tuple[str, str, int]]] = {}
    for dst, src, tag, n in deliveries:
        per_dst.setdefault(dst, []).append((src, tag, n))
    signature = hashlib.sha256(
        json.dumps(sorted(per_dst.items()), separators=(",", ":")).encode()
    ).hexdigest()
    return _Outcome(
        decisions=controller.decisions,
        report=report,
        signature=signature,
        params_digest=params_digest,
        error=error,
        truncated=controller.truncated,
        mismatches=controller.mismatches,
    )


# -- choice traces (serialized counterexamples) ----------------------------


@dataclass
class ChoiceTrace:
    """A replayable schedule: run shape + the choice at every tie.

    ``choices[i]`` is the index taken at decision ``i`` (trailing FIFO
    defaults are stripped); ``chosen_labels`` pins each chosen event's
    identity so replay detects drift against a changed codebase instead
    of silently checking a different schedule.  Version 1 traces were
    recorded over the one-generator-per-server inbox loop, whose tie
    groups differ; they are refused by version, not replayed.
    """

    config: Dict[str, Any]
    choices: List[int]
    chosen_labels: List[List[Any]] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    found_after_runs: int = 0
    version: int = 2

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChoiceTrace":
        doc = json.loads(text)
        if doc.get("version") != cls.version:
            raise ValueError(
                f"unsupported choice-trace version {doc.get('version')!r} (need {cls.version})"
            )
        return cls(
            config=doc["config"],
            choices=[int(c) for c in doc["choices"]],
            chosen_labels=[list(lbl) for lbl in doc.get("chosen_labels", [])],
            violations=[str(v) for v in doc.get("violations", [])],
            found_after_runs=int(doc.get("found_after_runs", 0)),
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ChoiceTrace":
        return cls.from_json(Path(path).read_text())


@dataclass
class ReplayResult:
    """Outcome of replaying a choice trace."""

    report: SanitizerReport
    params_digest: str
    n_decisions: int
    mismatches: List[str]
    error: Optional[str] = None

    def violation_codes(self) -> List[str]:
        codes = [v.code for v in self.report.violations]
        if self.error is not None:
            codes.append("X002")
        return codes

    @property
    def reproduced(self) -> bool:
        """Did the replay land on the recorded schedule and fail again?"""
        return not self.mismatches and bool(self.violation_codes())


def replay_trace(trace: ChoiceTrace) -> ReplayResult:
    """Re-run the exact schedule a :class:`ChoiceTrace` pins down."""
    cfg = ExploreConfig.from_run_params(trace.config)
    outcome = _run_schedule(cfg, trace.choices, expected_labels=trace.chosen_labels)
    return ReplayResult(
        report=outcome.report,
        params_digest=outcome.params_digest,
        n_decisions=len(outcome.decisions),
        mismatches=outcome.mismatches,
        error=outcome.error,
    )


def _chosen_labels(decisions: Sequence[_Decision], n: int) -> List[List[Any]]:
    return [list(d.labels[d.chosen]) for d in decisions[:n]]


def _strip_defaults(choices: List[int]) -> List[int]:
    out = list(choices)
    while out and out[-1] == 0:
        out.pop()
    return out


def _minimize(
    cfg: ExploreConfig, choices: List[int], codes: Set[str], budget: int = 64
) -> List[int]:
    """Greedy ddmin-lite: restore non-default choices to the FIFO default
    one at a time (last first) while the same violation class reproduces."""

    def fails(trial: List[int]) -> bool:
        return bool(set(_run_schedule(cfg, trial).violation_codes()) & codes)

    best = _strip_defaults(choices)
    changed = True
    while changed and budget > 0:
        changed = False
        for i in range(len(best) - 1, -1, -1):
            if best[i] == 0 or budget <= 0:
                continue
            trial = _strip_defaults(best[:i] + [0] + best[i + 1 :])
            budget -= 1
            if fails(trial):
                best = trial
                changed = True
    return _strip_defaults(best)


# -- the explorer ----------------------------------------------------------


@dataclass
class ExploreReport:
    """Outcome of one bounded exploration."""

    preset: str
    runs: int = 0
    inequivalent: int = 0
    decision_points: int = 0
    max_tie_width: int = 0
    branched: int = 0
    pruned: int = 0
    truncated_runs: int = 0
    frontier_exhausted: bool = False
    violations: List[Violation] = field(default_factory=list)
    counterexample: Optional[ChoiceTrace] = None

    @property
    def ok(self) -> bool:
        return not self.violations and self.counterexample is None

    @property
    def pruning_ratio(self) -> float:
        """Fraction of tie alternatives DPOR discarded as commuting."""
        considered = self.pruned + self.branched
        return self.pruned / considered if considered else 0.0

    def describe(self) -> str:
        head = (
            f"explore[{self.preset}]: {self.runs} runs, "
            f"{self.inequivalent} inequivalent schedule(s), "
            f"{self.decision_points} decision point(s), "
            f"DPOR pruning {self.pruning_ratio:.1%} "
            f"({self.pruned}/{self.pruned + self.branched} alternatives)"
        )
        if self.truncated_runs:
            head += f", {self.truncated_runs} depth-capped run(s)"
        if self.ok:
            return head + ": clean"
        lines = [head + f": {len(self.violations)} violation(s)"]
        lines += ["  " + v.describe() for v in self.violations[:10]]
        if self.counterexample is not None:
            lines.append(
                "  minimized counterexample: "
                f"choices={self.counterexample.choices} "
                f"(found after {self.counterexample.found_after_runs} run(s))"
            )
        return "\n".join(lines)


def explore(cfg: ExploreConfig) -> ExploreReport:
    """Bounded DFS over inequivalent schedules of one preset.

    Every explored schedule runs under the full sanitizer.  The first
    failing schedule is delta-minimized into ``report.counterexample``
    and exploration stops; otherwise the search runs until the branch
    frontier, the ``max_schedules`` budget, or ``target_inequivalent``
    is exhausted.
    """
    report = ExploreReport(preset=cfg.preset)
    signatures: Dict[str, str] = {}
    visited: Set[Tuple[int, ...]] = set()
    stack: List[List[int]] = [[]]
    while stack and report.runs < cfg.max_schedules:
        prefix = stack.pop()
        outcome = _run_schedule(cfg, prefix)
        report.runs += 1
        report.truncated_runs += 1 if outcome.truncated else 0
        report.decision_points = max(report.decision_points, len(outcome.decisions))
        prior = signatures.get(outcome.signature)
        if prior is None:
            signatures[outcome.signature] = outcome.params_digest
        elif prior != outcome.params_digest:
            report.violations.append(
                Violation(
                    code="X001",
                    message=(
                        "equivalent schedules disagree on final parameters "
                        f"(signature {outcome.signature[:12]}, prefix {prefix})"
                    ),
                )
            )
        report.inequivalent = len(signatures)
        if outcome.failed:
            codes = set(outcome.violation_codes())
            full = _strip_defaults([d.chosen for d in outcome.decisions])
            minimized = _minimize(cfg, full, codes)
            final = _run_schedule(cfg, minimized)
            trace = ChoiceTrace(
                config=cfg.run_params(),
                choices=minimized,
                chosen_labels=_chosen_labels(final.decisions, len(minimized)),
                violations=sorted(set(final.violation_codes()) or codes),
                found_after_runs=report.runs,
            )
            report.counterexample = trace
            report.violations.extend(outcome.report.violations)
            if outcome.error is not None:
                report.violations.append(
                    Violation(code="X002", message=f"schedule crashed: {outcome.error}")
                )
            break
        # Branch: for every decision this run took beyond its scripted
        # prefix, enqueue each *conflicting* alternative (DPOR); the
        # commuting ones are pruned.
        tx_conflicts = bool(cfg.delays)
        for i in range(len(prefix), len(outcome.decisions)):
            d = outcome.decisions[i]
            chosen_key = _conflict_key(d.labels[d.chosen], tx_conflicts)
            base = [dd.chosen for dd in outcome.decisions[:i]]
            for j in range(len(d.labels)):
                if j == d.chosen:
                    continue
                key = _conflict_key(d.labels[j], tx_conflicts)
                if (
                    key is None
                    or chosen_key is None
                    or key != chosen_key
                    or not _fifo_ok(d.labels, j)
                ):
                    report.pruned += 1
                    continue
                new_prefix = tuple(base + [j])
                if new_prefix in visited:
                    continue
                visited.add(new_prefix)
                report.branched += 1
                stack.append(list(new_prefix))
        report.max_tie_width = max(
            [report.max_tie_width] + [len(d.labels) for d in outcome.decisions]
        )
        if (
            cfg.target_inequivalent is not None
            and report.inequivalent >= cfg.target_inequivalent
        ):
            break
    report.frontier_exhausted = not stack
    return report
