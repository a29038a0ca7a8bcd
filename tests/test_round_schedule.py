"""The closed-form round, message by message, against the reference.

:func:`repro.sim.runner.quiet_round` returns a round's schedule as a
value; here each schedule the collapse driver commits is turned into
wire rows ``(src, dst, tag, size, send_time, deliver_time)`` — requests
sent at ``ready[w]``, replies at their pull's ``handle`` or a barrier's
release — and compared
with the textbook trace (``tests/reference_sim.py``) by
:func:`tests.sim_helpers.assert_same_wire`: exact floats.  The grid is
the *isolated* one (compute far wider than a round's communication), on
the cells that collapse at all; ``tests/mutants.py`` plants bugs this
module must catch.
"""

import copy
import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import asp, bsp, pssp, ssp
from repro.core.server import ExecutionMode
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.obs import NULL_OBS, MetricsRegistry, Observability
from repro.sim import runner as runner_mod
from repro.sim.cluster import cpu_cluster, gpu_cluster_p2
from repro.sim.runner import FluentPSSimRunner, SimConfig, _seq_cascade
from repro.sim.stragglers import (
    DeterministicCompute,
    ExponentialTailCompute,
    LogNormalCompute,
    cpu_cluster_compute,
)

from tests.mutants import (
    MUTANTS,
    cascade_trusts_guess,
    cross_round_tie_accepted,
    hint_trusted,
    intruder_pull_missing_one,
    intruders_unverified,
    separation_checks_pushes_only,
    span_totals_in_worker_order,
)
from tests.reference_sim import ReferenceSim, reference_wire
from tests.sim_helpers import assert_matches_reference, assert_same_wire, python_calls
from tests.test_round_collapse import _fingerprint, _mixed_cell, _run

ITERS = 4


def isolated_cell(n, m, sync, compute, execution=ExecutionMode.LAZY, op_cost=20e-6):
    return dict(
        cluster=cpu_cluster(n, n_servers=m),
        max_iter=ITERS,
        sync=sync,
        execution=execution,
        workload=alexnet_cifar_workload(),
        compute_model=compute,
        base_compute_time=30.0,
        server_op_overhead_s=op_cost,
        seed=5,
    )


def _isolated_grid():
    """The cells of the isolated grid (3 shapes x 4 sync models x 4
    compute models x 2 execution modes x 2 op costs = 192) that commit at
    least one round: all ``ITERS`` under identical workers, and under
    unequal ones (at the shapes where round 0 is still isolated) too,
    the next round's early requests merged into the round they overtake —
    except ``ssp(1)``, whose overtaking pulls the pre-advance frontier
    would not answer at once: a prefix, until the run de-vectorises.  The
    other 48 cells never collapse: ``test_reference_sim``'s domain.  Plus
    BSP at those 36 (shape, compute, execution, op cost) points: its
    barrier lines every round up, so it commits all ``ITERS``."""
    shapes = [(24, 3), (64, 8), (200, 5)]
    cells = []
    for cname, make_compute, collapsing in [
        ("det", lambda n: DeterministicCompute(), shapes),
        ("ln0", lambda n: LogNormalCompute(0.0), shapes),
        ("stragglers", cpu_cluster_compute, shapes[:2]),
        ("ln0.2", lambda n: LogNormalCompute(0.2), shapes[:1]),
    ]:
        for n, m in collapsing:
            for sname, sync in [
                ("ssp1", ssp(1)), ("ssp3", ssp(3)), ("pssp", pssp(2, 0.5)), ("asp", asp()),
                ("bsp", bsp()),
            ]:
                for execution in (ExecutionMode.LAZY, ExecutionMode.SOFT_BARRIER):
                    for op_cost in (20e-6, 0.002):
                        cells.append(
                            pytest.param(
                                isolated_cell(n, m, sync, make_compute(n), execution, op_cost),
                                cname in ("det", "ln0") or sname != "ssp1",
                                id=f"{n}x{m}-{sname}-{cname}-{execution.value}-{op_cost}",
                            )
                        )
    assert len(cells) == 144 + 36
    return cells


def _private_overlap_grid():
    """Cells whose committed rounds overlap the next round on the workers'
    private lanes — a worker's next compute starts while the round's last
    replies still drain — under stragglers and a compute window as wide as
    a round's communication: BSP and ``ssp(0)`` commit every round, and so
    does PSSP(2), its next round's early requests merged at the shards;
    ``ssp(1)`` its round 0.  The earlier global test (the next round's
    first send after this round's last reply) committed none of them."""
    cells = []
    for n, m in [(24, 3), (64, 8)]:
        for preset in ("cpu", "gpu_p2"):
            for sname, sync in [("bsp", bsp()), ("ssp0", ssp(0)), ("ssp1", ssp(1)),
                                ("pssp", pssp(2, 0.5))]:
                for execution in (ExecutionMode.LAZY, ExecutionMode.SOFT_BARRIER):
                    cluster = cpu_cluster(n, m) if preset == "cpu" else gpu_cluster_p2(n, m)
                    cells.append(
                        pytest.param(
                            dict(
                                cluster=cluster, max_iter=ITERS, sync=sync, execution=execution,
                                workload=alexnet_cifar_workload(),
                                compute_model=cpu_cluster_compute(n), seed=5,
                            ),
                            1 if sname == "ssp1" else ITERS,
                            id=f"{n}x{m}-{preset}-{sname}-{execution.value}",
                        )
                    )
    return cells


def _node_ids(runner):
    return [ep.node_id for ep in runner._wkr_eps], [ep.node_id for ep in runner._srv_eps]


def wire_rows(runner, sched):
    """One schedule as the reference's trace rows, in send order (a
    worker's 2M requests leave together, in column order)."""
    n, K = sched.tx_end.shape
    M = K // 2
    workers, servers = _node_ids(runner)
    shard_bytes, request_bytes = runner._shard_bytes, runner_mod.REQUEST_BYTES
    landed = np.empty((n, M))  # reply deliveries by [worker, shard]
    np.put_along_axis(landed, sched.reply_order, sched.reply_rx_end, axis=1)
    landed = landed.tolist()
    keyed = []  # ((send time, column), row)
    for m in range(M):
        handled = sched.handle[m].tolist()
        # A barrier answers the pulls it buffered when its n-th push is handled.
        release = handled[sched.applied[m].tolist().index(n)] if sched.lanes.barrier[m] else 0.0
        for i, delivered, at in zip(sched.claims[m].tolist(), sched.rx_end[m].tolist(), handled):
            w, k = divmod(i, K)
            assert k in (m, M + m)
            sent = float(sched.ready[w])
            if k < M:
                row = (workers[w], servers[m], "push", shard_bytes[m], sent, delivered)
            else:
                row = (workers[w], servers[m], "pull", request_bytes, sent, delivered)
                at = max(at, release)
                reply = (servers[m], workers[w], "reply", shard_bytes[m], at, landed[w][m])
                keyed.append(((at, 0), reply))
            keyed.append(((sent, k), row))
    return [row for _key, row in sorted(keyed, key=lambda pair: pair[0])]


def scheduled_rounds(runner):
    """Run ``runner``, keeping the schedule of every round the collapse
    computed: the committed ones and, if it de-vectorised, the refused one.
    A round scheduled twice — as if isolated, then merged with the next
    round's intruders — is kept as its last schedule."""
    made = []
    schedule = runner_mod.quiet_round  # the shipped function, or a mutant
    calls = []

    def recording(lanes, ready, order, *merge):
        if calls and calls[-1] is lanes:  # the same round again, merged
            made.pop()
        calls.append(lanes)
        made.append(schedule(lanes, ready, order, *merge))
        return made[-1]

    with mock.patch.object(runner_mod, "quiet_round", recording):
        runner.run()
    return made


def committed_schedules(runner):
    """Run ``runner``, keeping the schedule of every round it committed."""
    return scheduled_rounds(runner)[: runner.engine.rounds_collapsed]


def check_collapsed_wire(cfg_kwargs, made=None):
    """The rows of the committed rounds are the first ``rounds_collapsed``
    messages of every ``(src, dst, tag)`` stream of the reference; in a
    run committed whole, each shard's DPR waits fold to the reference's
    ``dpr_wait_total`` (the serve lane is not on the wire).  ``made``: a
    list that receives every schedule the collapse computed."""
    runner = FluentPSSimRunner(SimConfig(**cfg_kwargs, obs=NULL_OBS))
    scheduled = scheduled_rounds(runner)
    if made is not None:
        made.extend(scheduled)
    rounds = runner.engine.rounds_collapsed
    assert rounds > 0, runner.collapse_fallback
    committed = scheduled[:rounds]
    rows = [row for sched in committed for row in wire_rows(runner, sched)]
    rows.sort(key=lambda row: row[5])  # the trace is in delivery order
    seen = {}
    head = []
    ref = ReferenceSim(SimConfig(**cfg_kwargs, obs=NULL_OBS)).run()
    for row in ref.trace:
        seen[row[:3]] = nth = seen.get(row[:3], 0) + 1
        if nth <= rounds:
            head.append(row)
    assert len(rows) == len(head) == rounds * len(seen)
    assert_same_wire(rows, head)
    if rounds == cfg_kwargs["max_iter"]:
        for m, server in enumerate(ref.servers):
            total = 0.0
            for sched in committed:
                for waited in [] if sched.waits[m] is None else sched.waits[m].tolist():
                    total += waited
            assert total == server.metrics.dpr_wait_total, m
    return runner


def check_round_from_busy_lanes():
    """One round entered with non-zero lane cursors, busy sums and serve
    lanes still busy — the state a de-vectorised-then-resumed or restored
    run would hand over — against the bare reference wire."""
    n, M = 7, 3
    warm_bytes = 3_000_000
    kwargs = isolated_cell(n, M, ssp(3), DeterministicCompute())
    runner = FluentPSSimRunner(SimConfig(**kwargs, obs=NULL_OBS))
    net = runner.net
    workers, servers = _node_ids(runner)
    # Earlier traffic, on the production wire: every lane ends up with a
    # cursor in the future of the round's first sends.
    warm = [(0.0, w, s, warm_bytes) for w in workers for s in servers]
    warm += [(0.0, s, w, warm_bytes) for _ in range(2) for s in servers for w in workers]
    for _t, src, dst, size in warm:
        net.send(src, dst, size, notify=False)
    runner.engine.run()
    tx_hold = net.endpoints[workers[0]].nic.serialize_time(warm_bytes)
    lanes = runner._cohort_lanes()
    # Each serve lane frees while this round's requests are arriving.
    lanes.serve_busy = [free + (m + 2) * tx_hold for m, free in enumerate(lanes.srx_free)]
    # Some workers become ready while their own TX lane still drains.
    ready = tx_hold * (0.5 + 0.6 * np.arange(n)[::-1])
    assert min(ready) < min(lanes.wtx_free) < max(ready) < min(lanes.srx_free + lanes.stx_free)
    order = np.argsort(ready, kind="stable")
    sched = runner_mod.quiet_round(lanes, ready, order)  # shipped, or a mutant

    rows = wire_rows(runner, sched)
    nics = {name: ep.nic for name, ep in net.endpoints.items()}
    trace, counters = reference_wire(
        warm + [(sent, src, dst, size) for src, dst, _tag, size, sent, _at in rows],
        net.latency_s, nics,
    )
    rows = sorted((row[:2] + ("",) + row[3:] for row in rows), key=lambda row: row[5])
    assert_same_wire(rows, [row for row in trace if row[3] != warm_bytes])
    after = sched.lanes
    for w, name in enumerate(workers):
        assert counters[name][:2] == (after.wtx_busy[w], after.wrx_busy[w])
    for m, name in enumerate(servers):
        assert counters[name][:2] == (after.stx_busy[m], after.srx_busy[m])
    # The serve lane is not on the wire: the textbook inbox loop, inline.
    K = 2 * M
    inline = 0
    for m in range(M):
        busy = lanes.serve_busy[m]
        for delivered, handled in zip(sched.rx_end[m], sched.handle[m]):
            inline += delivered >= busy
            assert handled == max(delivered, busy)
            busy = handled + lanes.op_cost
        assert after.serve_busy[m] == busy
        assert sorted(sched.claims[m] % K) == sorted([m, M + m] * n)
    assert 0 < sched.inline == inline < 2 * n * M  # both sides of the busy lane taken


class TestScheduleAgainstReference:
    @pytest.mark.parametrize("cfg_kwargs, fully", _isolated_grid())
    def test_isolated_grid(self, cfg_kwargs, fully):
        runner = check_collapsed_wire(cfg_kwargs)
        assert (runner.engine.rounds_collapsed == ITERS) == fully

    def test_round_from_busy_lanes(self):
        check_round_from_busy_lanes()

    @pytest.mark.parametrize("cfg_kwargs, rounds", _private_overlap_grid())
    def test_rounds_overlapping_on_private_lanes(self, cfg_kwargs, rounds):
        made = []
        runner = check_collapsed_wire(cfg_kwargs, made)
        assert runner.engine.rounds_collapsed == rounds
        # Round 0's replies still drain at a worker when round 1's first
        # worker is ready: the global test would have committed nothing.
        assert made[0].done.max() > made[1].ready.min()
        assert_matches_reference(cfg_kwargs)


def _merged_cells():
    """Cells whose rounds mix at a shard and commit whole, merged."""
    cells = [pytest.param(_mixed_cell(seed), id=f"24x2-ssp3-seed{seed}") for seed in (0, 1, 7)]
    cells.append(pytest.param(_mixed_cell(0, pssp(2, 0.5)), id="24x2-pssp2"))
    return cells


@pytest.mark.parametrize("cfg_kwargs", _merged_cells())
def test_merged_rounds_against_the_reference(cfg_kwargs):
    """A round merged with the next round's intruders, and the next round
    that takes them as served, are each one schedule whose rows — the
    intruders' with the rows of the round they belong to — are the
    reference's messages."""
    made = []
    runner = check_collapsed_wire(cfg_kwargs, made)
    assert runner.engine.rounds_collapsed == cfg_kwargs["max_iter"]
    lent = [sum(rx.shape[0] for rx, _serve, _reply in sched.lent) for sched in made]
    assert any(lent) and not lent[-1]


def _merging_call(cfg_kwargs):
    """The arguments of the first :func:`quiet_round` call of a run that
    merged intruders, and the schedule it returned."""
    calls = []
    schedule = runner_mod.quiet_round

    def recording(*args):
        calls.append((copy.deepcopy(args), schedule(*args)))
        return calls[-1][1]

    with mock.patch.object(runner_mod, "quiet_round", recording):
        FluentPSSimRunner(SimConfig(**cfg_kwargs, obs=NULL_OBS)).run()
    return next((args, sched) for args, sched in calls if len(args) == 5)


def test_a_merged_round_is_pure():
    args, made = _merging_call(_mixed_cell(0))
    pristine = copy.deepcopy(args)
    assert _same(made, runner_mod.quiet_round(*args))
    assert _same(list(args), list(pristine))


def test_no_intruders_is_the_isolated_round():
    """Empty ``served`` and ``intruders`` per shard: today's floats."""
    (lanes, ready, order, _served, _intruders), _made = _merging_call(_mixed_cell(0))
    M = len(lanes.s_push_hold)
    empty = (np.empty(0), np.empty(0), np.empty(0))
    none = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64))
    isolated = runner_mod.quiet_round(lanes, ready, order)
    assert _same(isolated, runner_mod.quiet_round(lanes, ready, order, [empty] * M, [none] * M))


def _same(a, b):
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.no_sanitize  # explicit Observability below
def test_quiet_round_is_pure():
    """Same inputs, same schedule — on the same lane table twice and on a
    copy — and nothing but the returned value changes: not the inputs,
    not the engine, the network, the shards or the metrics registry."""
    obs = Observability(MetricsRegistry("pure"), causal=False)
    kwargs = isolated_cell(9, 4, pssp(2, 0.5), DeterministicCompute())
    runner = FluentPSSimRunner(SimConfig(**kwargs, obs=obs))
    lanes = runner._cohort_lanes()
    rng = np.random.default_rng(0)
    ready = 30.0 + rng.random(9)
    order = np.lexsort((rng.permutation(9), ready))
    pristine = copy.deepcopy((lanes, ready, order))
    metrics_before = obs.registry.to_dict()
    instants_before = len(obs.instants)

    quiet_round = runner_mod.quiet_round
    first = quiet_round(lanes, ready, order)
    assert _same(first, quiet_round(lanes, ready, order))
    assert _same(first, quiet_round(*copy.deepcopy(pristine)))
    assert _same([lanes, ready, order], list(pristine))
    assert first.lanes is not lanes and not _same(first.lanes, lanes)

    engine, net = runner.engine, runner.net
    assert (engine.now, engine.events_processed, engine.rounds_collapsed) == (0.0, 0, 0)
    assert not engine._heap
    assert (net.total_messages, net.fast_path_transfers, net._next_msg_id) == (0, 0, 0)
    assert all(ep.tx_free_at == ep.rx_free_at == 0.0 for ep in net.endpoints.values())
    assert all(s.v_train == 0 and s.metrics.pushes == s.metrics.pulls == 0 for s in runner.servers)
    assert obs.registry.to_dict() == metrics_before
    assert len(obs.instants) == instants_before


#: A few cells of the grid (a busy serve lane, ties, unequal draws) for the
#: kill matrix below — every cell of it is also a case of ``test_isolated_grid``.
_KILL_CELLS = [
    isolated_cell(24, 3, ssp(3), LogNormalCompute(0.2)),
    isolated_cell(24, 3, pssp(2, 0.5), DeterministicCompute(), op_cost=0.002),
    isolated_cell(64, 8, ssp(1), LogNormalCompute(0.0), ExecutionMode.SOFT_BARRIER),
    isolated_cell(24, 3, bsp(), LogNormalCompute(0.2)),
]

#: Which check kills which mutant: the grid cells' wire, the round from
#: busy lanes, and ``assert_matches_reference`` on the run as shipped — the
#: check that existed before the schedule was a value.  A row ending in
#: ``False`` is a bug only the direct test sees.
_KILL_MATRIX = {
    "serve_ignores_busy_lane": (True, True, True),
    "reply_rx_claimed_in_shard_order": (True, True, True),
    "claim_order_by_worker_index": (True, True, True),
    "cascade_forgets_cursor": (False, True, False),
    "bsp_release_at_pull_handle": (True, False, True),
    "bsp_dpr_cost_dropped": (True, False, True),
}


def _kills(check, cases):
    for case in cases:
        try:
            check(*case)
        except AssertionError:
            return True
    return False


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.__name__)
def test_kill_matrix(mutant, monkeypatch):
    mutant(monkeypatch)
    cells = [(kwargs,) for kwargs in _KILL_CELLS]
    row = (
        _kills(check_collapsed_wire, cells),
        _kills(check_round_from_busy_lanes, [()]),
        _kills(assert_matches_reference, cells),
    )
    assert row == _KILL_MATRIX[mutant.__name__]
    assert row[0] or row[1], "survives the direct test"


def test_some_mutant_dies_by_the_direct_test_alone():
    assert set(_KILL_MATRIX) == {mutant.__name__ for mutant in MUTANTS}
    assert any(not shipped for _grid, _busy, shipped in _KILL_MATRIX.values())


def lane_by_the_rule(arrivals, holds, cursor):
    """The capacity-1 lane recurrence in plain Python floats: this file's
    own spelling, the oracle of every cascade test below."""
    ends = []
    for a, h in zip(arrivals.tolist(), holds.tolist()):
        cursor = max(cursor, a) + h
        ends.append(cursor)
    return ends, cursor


def assert_cascade_is_the_rule(arrivals, holds, cursor):
    """``ends`` and the final cursor, bit for bit — never approx."""
    arrivals, holds = np.asarray(arrivals, dtype=float), np.asarray(holds, dtype=float)
    ends, final = runner_mod._seq_cascade(arrivals, holds, cursor)  # shipped, or a mutant
    want, want_final = lane_by_the_rule(arrivals, holds, cursor)
    assert ends.tolist() == want
    assert final == want_final
    assert ends.dtype == np.float64 and ends.shape == arrivals.shape


def rule_runs(arrivals, holds, cursor):
    """How often one cascade fell back to ``_lane_rule`` (0 or 1) — counted
    here, by wrapping it: production keeps no counter."""
    with mock.patch.object(runner_mod, "_lane_rule", wraps=runner_mod._lane_rule) as rule:
        assert_cascade_is_the_rule(arrivals, holds, cursor)
    return rule.call_count


#: How an adversarial stream places its next arrival, given the previous
#: *exact* end ``end`` and the previous arrival ``last``.
_MOVES = {
    "tie": lambda end, last, gap: end,
    "ulp_late": lambda end, last, gap: np.nextafter(end, np.inf),
    "ulp_early": lambda end, last, gap: np.nextafter(end, -np.inf),
    "duplicate": lambda end, last, gap: last,
    "idle": lambda end, last, gap: end + gap,
    "saturated": lambda end, last, gap: last + (end - last) * min(gap, 1.0),
}


def adversarial_stream(moves, holds, gaps, cursor):
    """Arrivals built against the lane's own exact ends: each lands on,
    one ulp either side of, well after or well inside the previous
    transfer — the places where an approximate segmentation goes wrong."""
    arrivals, end, last = [], cursor, 0.0
    for move, hold, gap in zip(moves, holds, gaps):
        last = max(last, float(_MOVES[move](end, last, gap)))
        arrivals.append(last)
        end = max(end, last) + hold
    return arrivals


def _near_tie_stream():
    """One stream a scan of approximate sums segments wrongly: every arrival
    one ulp before the previous exact end (saturated by the rule), holds of 0.1."""
    holds, cursor = [0.1] * 8, 0.3
    moves = ["idle"] + ["ulp_early"] * 7
    return adversarial_stream(moves, holds, [1.0] * 8, cursor), holds, cursor


def check_near_tie_runs_the_rule():
    assert rule_runs(*_near_tie_stream()) == 1


_HOLD = st.one_of(st.sampled_from([0.0, 0.1, 1e-5, 3.0]), st.floats(min_value=0.0, max_value=10.0))


class TestSeqCascade:
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=0,
            max_size=300,
        ),
        cursor=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_exact_vs_scalar_recurrence(self, data, cursor):
        arrivals = np.sort(np.array([a for a, _h in data], dtype=float))
        assert_cascade_is_the_rule(arrivals, [h for _a, h in data], cursor)

    @given(
        steps=st.lists(
            st.tuples(st.sampled_from(sorted(_MOVES)), _HOLD, st.floats(0.0, 2.0)), max_size=200
        ),
        cursor=st.sampled_from([0.0, 0.3, 7.0, 1e6]),
    )
    @settings(max_examples=150, deadline=None)
    def test_adversarial_streams(self, steps, cursor):
        moves, holds, gaps = (list(column) for column in zip(*steps)) if steps else ([], [], [])
        assert_cascade_is_the_rule(adversarial_stream(moves, holds, gaps, cursor), holds, cursor)

    @pytest.mark.parametrize(
        "arrivals, holds, cursor",
        [
            pytest.param([], [], 4.5, id="empty"),
            pytest.param([2.0], [0.5], 0.0, id="single-idle"),
            pytest.param([2.0], [0.5], 9.0, id="single-behind-a-busy-cursor"),
            pytest.param(np.linspace(0.0, 1.0, 5000), np.full(5000, 0.1), 0.0, id="one-long-chain"),
            pytest.param(np.repeat(np.arange(2500.0), 2), np.tile([0.6, 0.1], 2500), 0.0,
                         id="strict-idle-saturated-alternation"),
            pytest.param(np.arange(300.0), np.full(300, 0.25), 1e4, id="cursor-past-the-arrivals"),
            pytest.param(np.repeat([1.0, 1.0, 5.0], 40), np.zeros(120), 0.0,
                         id="zero-holds-duplicates"),
            pytest.param(np.repeat(np.arange(40.0), 3), np.tile([0.0, 0.4, 0.0], 40), 0.5,
                         id="some-zero-holds-duplicates"),
            pytest.param(np.cumsum(np.tile([9.0] + [0.01] * 6 + [9.0] + [0.01] * 40, 30)),
                         np.full(1440, 0.3), 0.0, id="chains-of-two-length-classes"),
        ],
    )
    def test_pinned_shapes(self, arrivals, holds, cursor):
        assert rule_runs(arrivals, holds, cursor) == 0

    def test_pinned_near_tie_runs_the_rule(self):
        """A wrong guess is caught and costs one scalar pass — the output
        is the rule's either way; exact ties need no fallback."""
        check_near_tie_runs_the_rule()
        holds, cursor = [0.1] * 8, 0.3
        on_the_end = adversarial_stream(["idle"] + ["tie"] * 7, holds, [1.0] * 8, cursor)
        assert rule_runs(on_the_end, holds, cursor) == 0

    def test_no_python_per_segment(self):
        """A cascade of 10 000 strictly alternating requests (5 000
        segments) makes as many Python-level calls as one of 100."""
        def calls(n_items):
            arrivals = np.repeat(np.arange(n_items / 2), 2)
            holds = np.tile([0.6, 0.1], n_items // 2)
            return python_calls(lambda: _seq_cascade(arrivals, holds, 0.0))

        small, big = calls(100), calls(10_000)
        assert 0 < small and abs(big - small) <= 4, (small, big)


def test_cascade_trusts_guess_dies_by_the_pinned_near_tie(monkeypatch):
    check_near_tie_runs_the_rule()
    cascade_trusts_guess(monkeypatch)
    with pytest.raises(AssertionError):
        check_near_tie_runs_the_rule()


def check_lexsort2(key, t, hint):
    """``lexsort2`` against ``np.lexsort``, index for index."""
    want = np.lexsort((key, t))
    got = runner_mod.lexsort2(key, t, hint)  # shipped, or a mutant
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def _hints(key, t, seed):
    """The hints a caller may pass: none worth the name, any at all, the
    key order (what a round's own order gives) and the answer itself."""
    n = key.shape[0]
    return [
        np.arange(n), np.arange(n)[::-1], np.random.default_rng(seed).permutation(n),
        np.argsort(key, kind="stable"), np.lexsort((key, t)),
    ]


#: TX ends with many exact ties: a few values, ``-0.0`` beside ``0.0``, and
#: floats rounded to one decimal.
_TIED = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(-1e3, 1e3).map(lambda x: round(x, 1))
)


class TestLexsort2:
    @given(
        rows=st.lists(
            st.tuples(st.integers(-(2**40), 2**40), _TIED), max_size=300,
            unique_by=lambda row: row[0],
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_is_lexsort_for_any_hint(self, rows, seed):
        key = np.array([k for k, _t in rows], dtype=np.int64)
        t = np.array([x for _k, x in rows], dtype=float)
        for hint in _hints(key, t, seed):
            check_lexsort2(key, t, hint)

    def test_hint_trusted_dies_by_the_property(self, monkeypatch):
        key, t = np.array([3, 0, 2, 1]), np.array([1.0, 0.0, 1.0, -0.0])
        check_lexsort2(key, t, np.arange(4))
        hint_trusted(monkeypatch)
        with pytest.raises(AssertionError):
            check_lexsort2(key, t, np.arange(4))

    def test_a_collapsed_run_sorts_without_lexsort(self, monkeypatch):
        """The cost pin: every claim order of an isolated run — 1000 workers
        x 8 shards x 3 rounds, the benchmark's ``ssp_isolated_5k`` regime —
        is a hinted ``lexsort2``; ``np.lexsort`` sorts intruder rows only."""
        def refused(keys):
            raise AssertionError("np.lexsort in an isolated round")

        runner = FluentPSSimRunner(SimConfig(
            cluster=cpu_cluster(1000, n_servers=8), max_iter=3, sync=ssp(3),
            workload=alexnet_cifar_workload(), compute_model=LogNormalCompute(sigma=0.01),
            base_compute_time=1e5, seed=0, obs=NULL_OBS,
        ))
        monkeypatch.setattr(np, "lexsort", refused)
        runner.run()
        assert runner.collapse_fallback == {}
        assert runner.engine.rounds_collapsed == 3


def test_span_totals_in_worker_order_dies_by_the_event_path_key_order(monkeypatch):
    """Span totals are not on the wire either.  The killer is
    ``test_round_collapse``'s fingerprint against ``EventPathRunner``: the
    order a kind's ``_totals`` keys were created in (and with it, at most,
    ``total_by_kind``'s sum) — nothing else in the fingerprint moves."""
    cell = _KILL_CELLS[0]  # unequal draws: round 0 resumes out of worker order

    def fingerprints():
        runs = [_run(cell, collapse) for collapse in (True, False)]
        assert runs[0][0].engine.rounds_collapsed > 0
        return [json.loads(_fingerprint(runner, result)) for runner, result in runs]

    fast, slow = fingerprints()
    assert fast == slow
    span_totals_in_worker_order(monkeypatch)
    fast, slow = fingerprints()
    assert fast["span_keys"] != slow["span_keys"]
    assert {key for key in slow if fast[key] != slow[key]} <= {"span_keys", "totals"}


def test_separation_checks_pushes_only_dies_by_the_reference(monkeypatch):
    """The intruder test must cover a round's pulls, not only its pushes.
    In this cell next-round requests reach a shard between a round's last
    push and its last pull there: the shipped test merges them and
    commits every round, the pushes-only test commits every round too,
    without them, and the run is no longer the reference's."""
    cell = dict(
        cluster=cpu_cluster(6, n_servers=3), max_iter=4, sync=ssp(1),
        workload=alexnet_cifar_workload(), compute_model=LogNormalCompute(0.2), seed=2,
    )
    runner, _result, _ref = assert_matches_reference(cell)
    assert runner.engine.rounds_collapsed == 4
    separation_checks_pushes_only(monkeypatch)
    with pytest.raises(AssertionError):
        assert_matches_reference(cell)
    mutated = FluentPSSimRunner(SimConfig(**cell, obs=NULL_OBS))
    mutated.run()
    assert mutated.engine.rounds_collapsed == 4


def test_intruders_unverified_dies_by_the_reference(monkeypatch):
    """In this cell merging a round's guessed intruders lets in other ones
    (the merge delays the gathers that sent them): the shipped collapse
    hands over at round 0, the unverified one commits every round, and
    the run is no longer the reference's."""
    cell = dict(
        cluster=gpu_cluster_p2(12, 3), max_iter=5, sync=ssp(3),
        workload=alexnet_cifar_workload(), compute_model=ExponentialTailCompute(0.2, 2.0),
        seed=3,
    )
    runner, _result, _ref = assert_matches_reference(cell)
    assert runner.collapse_fallback == {"reason": "overlap", "round": 0}
    intruders_unverified(monkeypatch)
    with pytest.raises(AssertionError):
        assert_matches_reference(cell)


def test_intruder_pull_missing_one_dies_by_the_reference(monkeypatch):
    cell = _mixed_cell(0)
    assert_matches_reference(cell)
    intruder_pull_missing_one(monkeypatch)
    with pytest.raises(AssertionError):
        assert_matches_reference(cell)


class _LateWorkerZero(DeterministicCompute):
    """Worker 0's round-0 compute lasts ``late`` seconds; the rest ``base``."""

    def __init__(self, late):
        super().__init__()
        self.late = late

    def sample(self, worker, iteration, base_time, rng):
        return self.late if (worker, iteration) == (0, 0) else base_time


def _cross_round_tie_cell():
    """Worker 0's round-0 pull to the last shard finishes TX on the very
    float at which worker ``w``'s round-1 push to it does: ``late`` is
    searched ulp by ulp against the lane arithmetic of ``_request_tx``."""
    def cell(late, iters=2):
        return dict(
            cluster=cpu_cluster(6, n_servers=2), max_iter=iters, sync=ssp(3),
            workload=alexnet_cifar_workload(), compute_model=_LateWorkerZero(late),
            base_compute_time=1.0, seed=0,
        )

    M = 2
    probe = FluentPSSimRunner(SimConfig(**cell(1e3, iters=1), obs=NULL_OBS))
    probe.run()  # the others' round 0, worker 0 far behind
    holds = probe._cohort_lanes().w_holds[0].tolist()  # every worker's alike

    def tx_end(ready, column):
        for k in range(column + 1):
            ready = ready + holds[min(k, M)]
        return ready

    w = 1 + int(np.argmin(probe._finish_times[1:]))
    target = tx_end(probe._finish_times[w] + 1.0, M - 1)
    late = target - sum(holds[min(k, M)] for k in range(2 * M))
    for _ in range(200):
        end = tx_end(late, 2 * M - 1)
        if end == target:
            return cell(float(late))
        late = np.nextafter(late, np.inf if end < target else -np.inf)
    raise AssertionError("no tying float found")


def test_cross_round_tie_accepted_dies_by_the_event_path(monkeypatch):
    """At an exact cross-round TX-end tie the event path claims the shard
    lane in event-sequence order, which the rank keys of two rounds do not
    encode: the shipped collapse hands over at round 0, the mutant merges
    by key and differs from the event path.  (The reference breaks this
    tie the other way — ROADMAP item 13 — so the killer is the event path.)"""
    cell = _cross_round_tie_cell()

    def fingerprints():
        runs = [_run(cell, collapse) for collapse in (True, False)]
        return runs[0][0], [_fingerprint(runner, result) for runner, result in runs]

    runner, (fast, slow) = fingerprints()
    assert runner.collapse_fallback == {"reason": "overlap", "round": 0}
    assert fast == slow
    cross_round_tie_accepted(monkeypatch)
    runner, (fast, slow) = fingerprints()
    assert runner.engine.rounds_collapsed == 2 and fast != slow
