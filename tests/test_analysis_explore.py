"""Tests for the DPOR schedule explorer (repro.analysis.explore)."""

import json

import pytest

from repro.analysis.explore import (
    PRESETS,
    ChoiceTrace,
    ExploreConfig,
    _conflict_key,
    _fifo_ok,
    _label,
    _minimize,
    _run_schedule,
    _strip_defaults,
    explore,
    replay_trace,
)
from repro.sim.network import Message, Network

from tests.mutants import weak_staleness

pytestmark = pytest.mark.no_sanitize  # explorer sanitizes its own runs


class TestExploreClean:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_hundred_inequivalent_schedules_clean(self, preset):
        # Acceptance: >= 100 inequivalent schedules per sync model with
        # zero violations; pruning ratio reported.
        report = explore(
            ExploreConfig(
                preset=preset,
                max_schedules=150,
                target_inequivalent=100,
            )
        )
        assert report.ok, report.describe()
        assert report.inequivalent >= 100
        assert report.runs >= report.inequivalent
        assert 0.0 < report.pruning_ratio < 1.0
        assert "DPOR pruning" in report.describe()

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize(
        "shape, count",
        [
            ((2, 1, 1), 6),  # C(4,2): two push-then-pull pairs into one server
            ((2, 1, 2), 36),  # 6 per iteration, independent
            ((2, 2, 1), 144),  # 6 per server, times each worker's 2 reply orders
            ((3, 1, 1), 90),  # 6! / (2!)^3
        ],
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_exhaustive_search_reaches_the_closed_form_count(self, preset, shape, count):
        # Soundness and optimality at once: with the frontier exhausted the
        # search has seen every per-destination delivery order (the
        # closed-form number) and ran each exactly once.
        workers, servers, iters = shape
        report = explore(
            ExploreConfig(
                preset=preset, n_workers=workers, n_servers=servers, max_iter=iters,
                max_schedules=10 * count,
            )
        )
        assert report.ok, report.describe()
        assert report.frontier_exhausted
        assert report.runs == report.inequivalent == count

    def test_equivalent_prefixes_share_signature_and_params(self):
        # The independence relation, checked: flip every alternative the
        # explorer prunes as commuting.  A flip followed by FIFO renumbers
        # later sends, so it need not land on the base trace — but
        # whichever trace it lands on, every schedule with that delivery
        # signature must have that signature's final parameter bytes
        # (X001's property).
        cfg = ExploreConfig(preset="ssp", max_iter=2)
        base = _run_schedule(cfg, [])
        assert base.error is None and base.report.ok
        digest_of = {base.signature: base.params_digest}
        flips = on_base = 0
        for i, d in enumerate(base.decisions):
            chosen_key = _conflict_key(d.labels[d.chosen])
            for j in range(1, len(d.labels)):
                key = _conflict_key(d.labels[j])
                if (key is not None and key == chosen_key) or not _fifo_ok(d.labels, j):
                    continue  # conflicting (branched on), or outside the wire contract
                flipped = _run_schedule(cfg, [dd.chosen for dd in base.decisions[:i]] + [j])
                assert flipped.error is None and flipped.report.ok
                flips += 1
                on_base += flipped.signature == base.signature
                assert digest_of.setdefault(flipped.signature, flipped.params_digest) == (
                    flipped.params_digest
                ), (i, j)
        assert flips > 0, "no pruned alternative in any tie"
        assert on_base > 0, "no flip of a pruned alternative landed on the base trace"


class TestMutationPipeline:
    def test_seeded_bug_found_minimized_and_replayable(self, tmp_path, monkeypatch):
        weak_staleness(monkeypatch)
        report = explore(ExploreConfig(preset="ssp", max_iter=6, spread=1.0, max_schedules=40))
        assert not report.ok
        codes = {v.code for v in report.violations}
        assert "S004" in codes
        trace = report.counterexample
        assert trace is not None
        assert "S004" in trace.violations
        assert trace.found_after_runs >= 1

        # Deterministic replay, including through JSON serialization.
        first = replay_trace(trace)
        assert first.reproduced, (first.mismatches, first.violation_codes())
        path = tmp_path / "cex.json"
        trace.save(path)
        second = replay_trace(ChoiceTrace.load(path))
        assert second.reproduced
        assert second.params_digest == first.params_digest
        assert sorted(set(second.violation_codes())) == sorted(
            set(first.violation_codes())
        )

    def test_trace_json_round_trip(self):
        trace = ChoiceTrace(
            config=ExploreConfig(preset="lazy").run_params(),
            choices=[0, 2, 1],
            chosen_labels=[["local", "f", 3]],
            violations=["S004"],
            found_after_runs=7,
        )
        doc = json.loads(trace.to_json())
        back = ChoiceTrace.from_json(json.dumps(doc))
        assert back.choices == [0, 2, 1]
        assert back.violations == ["S004"]
        assert back.found_after_runs == 7
        assert ExploreConfig.from_run_params(back.config).preset == "lazy"

    def test_unknown_trace_version_rejected(self):
        with pytest.raises(ValueError):
            ChoiceTrace.from_json(json.dumps({"version": 99, "choices": []}))

    def test_inbox_loop_era_trace_refused_by_version(self):
        # A version-1 trace pins tie groups of the deleted inbox loop:
        # refuse it up front rather than report label drift mid-replay.
        doc = json.loads(ChoiceTrace(config={}, choices=[]).to_json())
        assert doc["version"] == 2
        with pytest.raises(ValueError, match="version 1"):
            ChoiceTrace.from_json(json.dumps({**doc, "version": 1}))

    def test_unknown_wire_callback_raises(self):
        def _retransmit(packed):
            pass

        msg = Message(src="worker0", dst="server0", size_bytes=8, tag="push", msg_id=3)
        assert _label((0.0, 1, Network._deliver, (msg,))) == (
            "rx", "push", "worker0", "server0", 3,
        )
        with pytest.raises(ValueError, match="_retransmit"):
            _label((0.0, 1, _retransmit, (msg,)))

    def test_mutation_registry_and_validation(self):
        with pytest.raises(ValueError):
            ExploreConfig(preset="nope")


class TestMinimize:
    def test_minimize_drops_irrelevant_choices(self, monkeypatch):
        # `repro.analysis.__init__` rebinds the name `explore` to the
        # function, so fetch the module itself for patching.
        import sys

        ex = sys.modules["repro.analysis.explore"]

        class FakeOutcome:
            def __init__(self, codes):
                self._codes = codes

            def violation_codes(self):
                return self._codes

        calls = []

        def fake_run(cfg, prefix, expected_labels=None):
            calls.append(list(prefix))
            # The bug needs only choice #1 == 2; everything else is noise.
            fails = len(prefix) > 1 and prefix[1] == 2
            return FakeOutcome(["S004"] if fails else [])

        monkeypatch.setattr(ex, "_run_schedule", fake_run)
        best = _minimize(
            ExploreConfig(preset="ssp"), [1, 2, 3, 1, 2], {"S004"}
        )
        assert best == [0, 2]
        assert all(len(c) <= 5 for c in calls)

    def test_strip_defaults(self):
        assert _strip_defaults([0, 1, 0, 0]) == [0, 1]
        assert _strip_defaults([0, 0]) == []
