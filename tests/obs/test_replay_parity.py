"""Regression guard: every EventKind member is either replayed into an
ExecutionTrace counter or deliberately listed as ignored.  These tests are
the partition's only check; the static analyzer's ``eventkind-coverage``
rule checks that every member is emitted somewhere."""

from repro.obs.events import EventKind, EventLog
from repro.obs.replay import REPLAY_HANDLED, REPLAY_IGNORED, replay_trace


class TestKindPartition:
    def test_handled_and_ignored_cover_every_kind(self):
        missing = set(EventKind) - (REPLAY_HANDLED | REPLAY_IGNORED)
        assert not missing, (
            f"EventKind members unaccounted for by obs.replay: "
            f"{sorted(k.value for k in missing)} -- route them into a "
            "counter or add them to REPLAY_IGNORED with a rationale"
        )

    def test_no_kind_is_both_handled_and_ignored(self):
        overlap = REPLAY_HANDLED & REPLAY_IGNORED
        assert not overlap, sorted(k.value for k in overlap)

    def test_static_lint_agrees(self):
        """The eventkind-coverage rule checks, from the source text, that
        every member is emitted somewhere; it must pass on the shipped
        package too."""
        from repro.verify.static import STATIC_RULES, run_static

        rules = [r for r in STATIC_RULES if "eventkind-coverage" in r.names]
        assert not run_static(rules=rules)


class TestReplayConsumesHandledKinds:
    def test_replay_accepts_one_event_of_every_kind(self):
        """Replay must not crash on any kind, handled or ignored."""
        log = EventLog()
        for kind in EventKind:
            log.emit(kind, ("t", 1), 1, src=("t", 0))
        trace = replay_trace(log.events)
        assert trace is not None

    def test_ignored_kinds_leave_counters_untouched(self):
        log = EventLog()
        for kind in REPLAY_IGNORED:
            log.emit(kind, ("t", 1), 1)
        baseline = replay_trace([]).__dict__
        replayed = replay_trace(log.events).__dict__
        numeric = {
            k: v for k, v in replayed.items() if isinstance(v, (int, float))
        }
        for name, value in numeric.items():
            assert value == baseline.get(name, 0), f"{name} moved on an ignored kind"
