"""Semantic mutants of the closed-form round and the event path (first
rows of ROADMAP 7's kill matrix).

Each of the 33 mutants is a named function that takes pytest's
``monkeypatch`` and plants one protocol-level bug in
:mod:`repro.sim.runner` (one in :mod:`repro.sim.trace`, where the
collapse's span totals are recorded, one in :mod:`repro.sim.network`'s
delivery fusing, one in the event path's serve lane, two in
:class:`repro.core.server.ShardServer` — its push apply and its lazy
buffer key —, one in the API's assembly of a pull's reply, one in the protocol
sanitizer's vector proof, one where the runner takes over a system to
continue, three in the schedule log a real-gradient run's math is
replayed from, two in the replay's cohort rule, two in the replay's
answer to a significance read, three in the instant
blocks of an observed collapsed round, one in the ownership rule that
decides which condition capabilities the collapse relies on, one in the
schedule explorer's ``ssp`` preset) for the length of a test — test
code only, nothing under ``src/`` imports this module.
All but four rewrite one line of a function's source (the site must
occur exactly once, so an edit that moves it fails here, loudly, instead
of leaving a mutant that mutates nothing); ``cascade_forgets_cursor``
wraps ``_seq_cascade``, ``significance_before_apply`` wraps
``handle_push``, ``eval_read_one_event_late`` wraps the runner's
``_end_iteration`` and its request sink ``_serve``, and ``weak_staleness``
swaps a preset's pull condition for :class:`LeakySSPPull`.
``tests/test_round_schedule.py`` pins which check kills which for the
round's mutants; the others name their killer.
"""

import inspect
import textwrap

import numpy as np

from repro.analysis.explore import PRESETS
from repro.analysis.sanitizer import ShardChecker
from repro.core import conditions, replay
from repro.core.conditions import SSPPull
from repro.core.models import SyncModel
from repro.core.api import _PendingPull
from repro.core.pssp import gradient_significance
from repro.core.server import ShardServer
from repro.sim import runner
from repro.sim.network import Network
from repro.sim.trace import CohortSpans


def _rewrite(monkeypatch, owner, name: str, site: str, bug: str) -> None:
    """Replace ``owner.<name>`` — a module's function or a class's method —
    by its source with ``site`` rewritten to ``bug``."""
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(site) == 1, f"mutation site moved: {site!r}"
    scope = {}
    code = compile(source.replace(site, bug), f"<mutant {name}>", "exec")
    exec(code, function.__globals__, scope)
    monkeypatch.setattr(owner, name, scope[name])


def _rewrite_quiet_round(monkeypatch, site: str, bug: str) -> None:
    _rewrite(monkeypatch, runner, "quiet_round", site, bug)


def serve_ignores_busy_lane(monkeypatch) -> None:
    """A request is handled at its delivery, busy serve lane or not."""
    _rewrite_quiet_round(monkeypatch, "serve = np.maximum(busy_prev, rx)", "serve = rx")


def reply_rx_claimed_in_shard_order(monkeypatch) -> None:
    """A worker's RX lane drains its replies in shard order, not in the
    order they finish serializing (``Network.join`` without ``legs.sort()``)."""
    _rewrite_quiet_round(
        monkeypatch,
        "perm = np.take_along_axis(o1, o2, axis=1)",
        "perm = np.tile(np.arange(M), (n, 1))",
    )


def claim_order_by_worker_index(monkeypatch) -> None:
    """A shard's RX lane is claimed pushes-then-pulls by worker index,
    whatever the requests' ``(tx_end, resume rank)``."""
    _rewrite_quiet_round(monkeypatch, "o = lexsort2(k2, t2, pairs)", "o = np.arange(2 * n)")


def hint_trusted(monkeypatch) -> None:
    """``lexsort2`` skips its key sort and trusts the hint to be in key
    order.  Every hint ``quiet_round`` passes is in key order except inside
    a barrier's burst, where it changes only the tie-break of two gathers
    closing at the same float: no cell of the reference grid has one, so
    the killer is the property.  Killer:
    ``test_round_schedule.py::TestLexsort2::test_hint_trusted_dies_by_the_property``."""
    _rewrite(monkeypatch, runner, "lexsort2", 'p = hint[np.argsort(key[hint], kind="stable")]', "p = hint")


def bsp_release_at_pull_handle(monkeypatch) -> None:
    """A barrier shard's buffered pulls are answered at their own handles,
    not together when its n-th push releases them."""
    _rewrite_quiet_round(monkeypatch, "sent = np.maximum(sent, release)", "sent = sent")


def bsp_dpr_cost_dropped(monkeypatch) -> None:
    """A buffered pull holds the serve lane for the op cost only: the DPR
    cost ``dpr_overhead_s`` is never charged."""
    _rewrite_quiet_round(
        monkeypatch, "lanes.dpr_cost, lanes.op_cost)", "lanes.op_cost, lanes.op_cost)"
    )


def separation_checks_pushes_only(monkeypatch) -> None:
    """The collapse's intruder test compares the next round's requests to
    a shard with this round's *pushes* to it, not all its requests: a
    next-round request that reaches a shard after this round's last push
    but before its last pull is neither merged nor refused.  Killer:
    ``test_round_schedule.py::test_separation_checks_pushes_only_dies_by_the_reference``."""
    _rewrite(
        monkeypatch, runner, "_intruders",
        "last = tx[:, :M].min(axis=0), sched.tx_end[:, M:].max(axis=0)",
        "last = tx[:, :M].min(axis=0), sched.tx_end[:, :M].max(axis=0)",
    )


def cascade_forgets_cursor(monkeypatch) -> None:
    """Every lane cascade starts idle: the cursor a lane carries into the
    round is dropped."""
    cascade = runner._seq_cascade
    monkeypatch.setattr(
        runner, "_seq_cascade", lambda arrivals, holds, cursor: cascade(arrivals, holds, 0.0)
    )


def cascade_trusts_guess(monkeypatch) -> None:
    """The cascade's verification step is skipped: a stream segmented by
    the approximate scan is returned unproven.  No wire check of the kill
    matrix can see it; ``test_pinned_near_tie_runs_the_rule`` does."""
    _rewrite(monkeypatch, runner, "_seq_cascade", "if wrong.any():", "if False:")


def span_totals_in_worker_order(monkeypatch) -> None:
    """The collapse credits its span totals in worker-index order, not in
    round 0's resume / gather-close order: ``_totals`` holds the same
    floats under keys the event path would have created in another order.
    Not a wire bug either; the event-path fingerprint sees it."""
    _rewrite(
        monkeypatch,
        CohortSpans,
        "credit",
        "for i in self.first_order.tolist():",
        "for i in range(len(self.actors)):",
    )


def fused_overtakes_unfused(monkeypatch) -> None:
    """A signal-free delivery fuses into its TX completion although an
    earlier delivery to the same sink still waits for its own event: the
    sink is called out of ``deliver_time`` order.  Networks built after the
    patch (``_tx_done_cb`` is bound at construction).  Killer:
    ``test_network_fastpath.py::TestSinkOrder``."""
    _rewrite(monkeypatch, Network, "_fast_tx_done", "and not dst_ep.unfused", "and True")


def request_serve_ignores_busy_lane(monkeypatch) -> None:
    """On the event path a request is handled at its delivery even while
    its shard's serve lane is still busy with an earlier one (the event
    path's twin of ``serve_ignores_busy_lane``).  Killer:
    ``test_server_dispatch.py::TestBusyLane::test_request_serve_ignores_busy_lane_dies_by_the_reference``."""
    _rewrite(monkeypatch, runner.FluentPSSimRunner, "_serve", "if at >= busy:", "if True:")


def proof_ignores_staleness_bound(monkeypatch) -> None:
    """The sanitizer's vector proof of a columnar block skips S004: answers
    missing more iterations than ``s`` allows are proven, so a checked run
    passes them silently.  Killer:
    ``test_sanitizer_blocks.py::TestStalenessBoundProof``."""
    _rewrite(
        monkeypatch, ShardChecker, "prove_rows", "if (m_ans >= s_bound + 1).any():", "if False:"
    )


def significance_before_apply(monkeypatch) -> None:
    """A push's significance is read against the shard's parameters
    *before* its own apply (and handed in as if explicit), not after.
    Killer: ``test_server.py::TestPushSemantics::test_each_push_is_applied_when_handled``."""
    handle_push = ShardServer.handle_push

    def mutant(self, worker, progress, grad=None, significance=None):
        if grad is not None and self.params is not None and significance is None:
            significance = gradient_significance(
                float(np.linalg.norm(grad)), float(np.linalg.norm(self.params))
            )
        handle_push(self, worker, progress, grad, significance)

    monkeypatch.setattr(ShardServer, "handle_push", mutant)


def lazy_released_with_missing(monkeypatch) -> None:
    """Lazy execution buffers a DPR at the current frontier, not at its
    progress: the next advance answers it with iterations still missing
    (Figure 3b's guarantee broken).  Killer:
    ``test_server.py::TestLazyExecution::test_lazy_waits_for_full_catchup``."""
    _rewrite(monkeypatch, ShardServer, "_buffer_key", "return progress", "return self.v_train")


def pull_assembles_at_completion(monkeypatch) -> None:
    """An sPull reads every shard when its last shard answers, not each
    shard when that shard answers: a shard that answered early is read
    after later pushes, past the ``version`` its reply reports.  Killer:
    ``test_api.py::TestPushPull::test_each_shard_is_read_when_it_answers``."""
    _rewrite(
        monkeypatch, _PendingPull, "make_responder",
        "self.system.layout.gather_into(self.flat, server_idx, shard.params)",
        "if self.remaining == 1: self.flat[...] = self.system.current_params()",
    )


def resume_ignores_restored_progress(monkeypatch) -> None:
    """A runner handed a restored system starts its workers at iteration
    0, not one past the progress the checkpoint recorded.  Killer:
    ``test_checkpoint.py::TestCheckpoint::test_continued_training_resumes_at_restored_progress``."""
    _rewrite(
        monkeypatch,
        runner.FluentPSSimRunner,
        "__init__",
        "self._first = [p + 1 for p in self.servers[0].worker_progress]",
        "self._first = [0] * n",
    )


def capability_by_inheritance(monkeypatch) -> None:
    """The ownership rule trusts an inherited capability: a condition that
    overrides ``__call__`` alone is committed on the ``quiet_bound`` or
    ``quorum`` its parent declared.  Killer:
    ``test_round_collapse.py::TestDeclaredCapabilities::test_capability_by_inheritance_dies_by_the_hazard_rows``
    (the rows of ``test_first_failing_reason_is_reported`` that name ``_HAZARDS``)."""
    _rewrite(
        monkeypatch, conditions, "declared_together",
        "return len(owners) == 1 and None not in owners and not on_instance",
        "return None not in owners and not on_instance",
    )


class LeakySSPPull(SSPPull):
    """Advertises bound ``s`` but answers one iteration staler.

    ``staleness()`` still reports ``s`` (what the server_config event
    advertises to the sanitizer), while the condition admits pulls up to
    ``s + 1`` missing iterations — exactly the off-by-one a refactor of
    the DPR threshold could introduce.  A subclass overriding ``__call__``
    alone, so the round collapse must refuse it (``_HAZARDS`` in
    ``test_round_collapse.py``)."""

    def __call__(self, view) -> bool:
        return view.progress < view.v_train + self.s + 1


def weaken_staleness(model: SyncModel) -> SyncModel:
    """``model`` with its pull condition swapped for :class:`LeakySSPPull`."""
    s = int(model.staleness)
    return SyncModel(
        f"{model.name}+weak-staleness",
        lambda: LeakySSPPull(s),
        model.make_push,
        staleness=s,
        params=dict(model.params),
    )


def weak_staleness(monkeypatch) -> None:
    """The schedule explorer's ``ssp`` preset answers pulls one iteration
    beyond the bound it advertises, so the explorer must find S004,
    minimize it and replay it.  Killers:
    ``test_analysis_explore.py::TestMutationPipeline::test_seeded_bug_found_minimized_and_replayable``
    and ``test_analysis_cli.py::TestExploreExit::test_mutated_exploration_exits_6_and_writes_trace``."""
    desc, make_model, execution = PRESETS["ssp"]
    monkeypatch.setitem(
        PRESETS, "ssp",
        (f"{desc} +weak-staleness", lambda: weaken_staleness(make_model()), execution),
    )


#: The mutants of one round's schedule, for the kill matrix.
MUTANTS = (
    serve_ignores_busy_lane,
    reply_rx_claimed_in_shard_order,
    claim_order_by_worker_index,
    cascade_forgets_cursor,
    bsp_release_at_pull_handle,
    bsp_dpr_cost_dropped,
)


def intruders_unverified(monkeypatch) -> None:
    """A round merged with the next round's intruders commits on the guess
    alone: the intruder set is not re-derived from the merged round's own
    gathers.  Killer:
    ``test_round_schedule.py::test_intruders_unverified_dies_by_the_reference``."""
    _rewrite(
        monkeypatch, runner.FluentPSSimRunner, "_collapse_rounds",
        "again = _intruders(sched, ready_next, order_next, floor, stale)",
        "again = lend",
    )


def intruder_pull_missing_one(monkeypatch) -> None:
    """Every intruder pull is recorded one iteration stale, also those a
    shard answers before the lending round's frontier advance (two
    missing).  Killer:
    ``test_round_schedule.py::test_intruder_pull_missing_one_dies_by_the_reference``."""
    _rewrite(
        monkeypatch, runner.FluentPSSimRunner, "_collapse_rounds",
        "behind = lend[1] if mixed else [0] * M", "behind = [0] * M",
    )


def cross_round_tie_accepted(monkeypatch) -> None:
    """A next-round request whose TX end ties a request of this round at a
    shard is merged, by rank key, as if the two were of one round.
    Killer: ``test_round_schedule.py::test_cross_round_tie_accepted_dies_by_the_reference``."""
    _rewrite(
        monkeypatch, runner, "_intruders", "(own[np.searchsorted(own, at)] == at).any()", "False"
    )


def depth_two_mixing_accepted(monkeypatch) -> None:
    """A request two rounds ahead that reaches a shard before a round's
    last request there is not refused.  Killer:
    ``test_round_collapse.py::TestDevectorization::test_depth_two_mixing_hands_over``."""
    _rewrite(
        monkeypatch, runner, "_intruders",
        "if floor is not None and (first <= floor).any():", "if False:",
    )


def apply_log_out_of_order(monkeypatch) -> None:
    """A round committed in closed form logs its pushes to each shard in
    worker order, not in the order the shard handled them: the replay
    applies them in that order.  Killer:
    ``test_server_dispatch.py::TestScheduleLogMutants::test_apply_log_out_of_order_dies_here``."""
    _rewrite(
        monkeypatch, runner.FluentPSSimRunner, "_log_round",
        "log.applies[m].extend(zip(workers[~pull].tolist(),",
        "log.applies[m].extend(zip(np.sort(workers[~pull]).tolist(),",
    )


def reply_prefix_off_by_one(monkeypatch) -> None:
    """A reply on the event path logs the version before the one it read
    (``PullReply.version - 1``): the replayed step misses a push.  Killer:
    ``test_server_dispatch.py::TestScheduleLogMutants::test_reply_prefix_off_by_one_dies_here``."""
    _rewrite(
        monkeypatch, runner.FluentPSSimRunner, "_send_reply",
        "server] = reply.version", "server] = reply.version - 1",
    )


def eval_read_one_event_late(monkeypatch) -> None:
    """A timing run's evaluation reads the shards' versions one event late:
    after the next request a shard handles, not at worker 0's resume.
    Killer:
    ``test_server_dispatch.py::TestScheduleLogMutants::test_eval_read_one_event_late_dies_here``."""
    end_iteration = runner.FluentPSSimRunner._end_iteration
    serve = runner.FluentPSSimRunner._serve
    late = []

    def mark(self, row):
        evals = None if self._log is None else len(self._log.evals)
        end_iteration(self, row)
        if evals is not None and len(self._log.evals) > evals:
            late.append(self)

    def reread(self, request, at, cause):
        serve(self, request, at, cause)
        if self in late:
            late.remove(self)
            steps, _versions = self._log.evals[-1]
            self._log.evals[-1] = (steps, [s.version for s in self.servers])

    monkeypatch.setattr(runner.FluentPSSimRunner, "_end_iteration", mark)
    monkeypatch.setattr(runner.FluentPSSimRunner, "_serve", reread)


def replay_cohort_reads_ahead(monkeypatch) -> None:
    """The replay's cohort rule admits a step that reads the very version a
    push of an earlier member makes (``>`` for ``>=``): its read needs a
    push its cohort has not stepped yet.  Killer:
    ``test_replay.py::TestCohorts::test_a_read_of_a_members_push_cuts``."""
    _rewrite(
        monkeypatch, replay, "cohorts",
        "any(r >= v for r, v in zip(read, low))", "any(r > v for r, v in zip(read, low))",
    )


def replay_cohort_same_worker(monkeypatch) -> None:
    """A worker's next step joins its own cohort when it reads no version
    the cohort pushes.  Killer:
    ``test_replay.py::TestCohorts::test_a_worker_never_joins_its_own_cohort``."""
    _rewrite(monkeypatch, replay, "cohorts", "w in members or k in due", "k in due")


def significance_from_the_version_before(monkeypatch) -> None:
    """A significance read on a replayed shard is answered at the version
    before the shard's current one: the replay catches up one push short
    and reads that push's |g|/|w|.  Killer:
    ``test_server_dispatch.py::TestScheduleLogMutants::test_significance_from_the_version_before_dies_here``."""
    _rewrite(
        monkeypatch, replay.Replay, "significance",
        "version = shard.server.version", "version = shard.server.version - 1",
    )


def catch_up_one_step_short(monkeypatch) -> None:
    """A significance read's catch-up stops one step short of the logged
    steps.  Killer:
    ``test_server_dispatch.py::TestScheduleLogMutants::test_catch_up_one_step_short_dies_here``."""
    _rewrite(
        monkeypatch, replay.Replay, "significance",
        "self.advance(len(self.log.steps))", "self.advance(len(self.log.steps) - 1)",
    )


def block_drops_dpr_released(monkeypatch) -> None:
    """A barrier shard's blocks lose their ``dpr_released`` rows: the
    answers a frontier advance releases stand alone.  No sanitizer rule
    reads the release row.  Killer:
    ``test_round_collapse.py::TestBlockMutants::test_block_drops_dpr_released_dies_by_the_event_path``."""
    _rewrite(
        monkeypatch, runner.FluentPSSimRunner, "_emit_round_blocks",
        "log.append_block(part, shards)",
        "log.append_block(part[part['code'] != DPR_RELEASED], shards)",
    )


def block_intruder_pull_missing_one(monkeypatch) -> None:
    """A block records an intruder pull answered before the lending
    round's frontier advance as missing one iteration, not two (the
    shard's staleness histogram still counts two).  Killer:
    ``test_round_collapse.py::TestBlockMutants::test_block_intruder_pull_missing_one_dies_by_the_sanitizer``."""
    _rewrite(
        monkeypatch, runner, "_shard_rows",
        "np.maximum(0, progress + 1 - v_train)",
        "np.clip(progress + 1 - v_train, 0, 1)",
    )


def block_rows_in_worker_order(monkeypatch) -> None:
    """A shard's block lists its requests in worker order, not in the
    order it claimed (and handled) them; the serve times stay in claim
    order.  Killer:
    ``test_round_collapse.py::TestBlockMutants::test_block_rows_in_worker_order_dies_by_the_event_path``."""
    _rewrite(
        monkeypatch, runner.FluentPSSimRunner, "_emit_round_blocks",
        "for m, stream in enumerate(sched.streams):",
        "for m, stream in enumerate((np.sort(i), t, x) for i, t, x in sched.streams):",
    )
