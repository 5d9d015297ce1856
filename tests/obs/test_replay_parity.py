"""Replay is the trace's own fold: any event sequence, noted live or
emitted into a log and folded, counts the same.  The static analyzer's
``eventkind-coverage`` rule checks that every member is emitted
somewhere."""

from hypothesis import given, settings, strategies as st

from repro.obs.events import EventKind, EventLog
from repro.runtime.tracing import ExecutionTrace, verify_consistency


class TestKindPartition:
    def test_static_lint_agrees(self):
        """The eventkind-coverage rule checks, from the source text, that
        every member is emitted somewhere; it must pass on the shipped
        package too."""
        from repro.verify.static import STATIC_RULES, run_static

        rules = [r for r in STATIC_RULES if "eventkind-coverage" in r.names]
        assert not run_static(rules=rules)


class TestReplayConsumesHandledKinds:
    def test_replay_accepts_one_event_of_every_kind(self):
        """Replay must not crash on any kind, reported or not."""
        log = EventLog()
        for kind in EventKind:
            log.emit(kind, ("t", 1), 1, src=("t", 0))
        trace = ExecutionTrace().fold(log.events)
        assert trace is not None

    @given(
        events=st.lists(
            st.tuples(st.sampled_from(list(EventKind)), st.one_of(st.none(), st.integers(0, 4))),
            max_size=60,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_live_and_folded_counts_agree(self, events):
        live, log = ExecutionTrace(), EventLog()
        for kind, key in events:
            live.note(kind, key)
            log.emit(kind, key, 1)
        folded = ExecutionTrace().fold(log.events)
        assert folded.counts == live.counts
        for name in ("computes", "compute_failures", "recoveries"):
            assert getattr(folded, name) == getattr(live, name)
        assert folded.summary() == live.summary()
        assert verify_consistency(log.events, live) == {}
