"""The invariant checker convicts synthetic protocol violations and stays
quiet on well-formed traces (synthetic and real)."""

import json
from types import SimpleNamespace

import pytest

from repro.apps import APP_NAMES
from repro.obs.events import Event, EventKind
from repro.verify.invariants import (
    INVARIANTS,
    check_events,
    check_log,
    events_from_jsonl,
    summarize,
)

K = EventKind


def trace(*steps):
    """Build an event list from (kind, key, life[, data]) tuples."""
    events = []
    for seq, step in enumerate(steps):
        kind, key, life = step[0], step[1], step[2]
        data = step[3] if len(step) > 3 else {}
        worker = data.pop("worker", 0)
        events.append(Event(seq, float(seq), worker, kind, key=key, life=life, data=data))
    return events


def names(violations):
    return {v.invariant for v in violations}


CLEAN = [
    (K.TASK_CREATED, "a", 1),
    (K.NOTIFY, "a", 1, {"src": "a"}),
    (K.COMPUTE_BEGIN, "a", 1),
    (K.COMPUTE_END, "a", 1),
    (K.TASK_COMPUTED, "a", 1),
    (K.TASK_COMPLETED, "a", 1),
]


class TestCleanTraces:
    def test_minimal_lifecycle_is_clean(self):
        assert check_events(trace(*CLEAN)) == []

    def test_recovery_with_evidence_is_clean(self):
        events = trace(
            *CLEAN,
            (K.FAULT_OBSERVED, "a", 1),
            (K.RECOVERY, "a", 2),
            (K.NOTIFY, "a", 2, {"src": "a"}),
            (K.COMPUTE_BEGIN, "a", 2),
            (K.COMPUTE_END, "a", 2),
            (K.TASK_COMPUTED, "a", 2),
        )
        assert check_events(events) == []

    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_real_fault_injected_run_is_clean(self, app_name):
        from repro.verify.explore import Schedule, make_app_case, run_schedule

        case = make_app_case(app_name, fault_phase="before_compute")
        app, plan = case(0)
        outcome = run_schedule(app, Schedule(seed=0, workers=3), plan=plan)
        assert outcome.error is None
        assert outcome.violations == []
        assert outcome.kinds.get(K.RECOVERY)


class TestG1Recovery:
    def test_duplicate_recovery(self):
        events = trace(
            (K.FAULT_OBSERVED, "a", 1),
            (K.RECOVERY, "a", 2),
            (K.RECOVERY, "a", 2),
        )
        got = names(check_events(events))
        assert "unique-recovery" in got
        assert "monotone-recovery" in got  # second install is also non-increasing

    def test_nonmonotone_recovery(self):
        events = trace(
            (K.FAULT_OBSERVED, "a", 2),
            (K.RECOVERY, "a", 3),
            (K.RECOVERY, "a", 2),
        )
        assert "monotone-recovery" in names(check_events(events, strict=False))

    def test_unjustified_recovery_strict_only(self):
        events = trace((K.RECOVERY, "a", 2))
        assert "justified-recovery" in names(check_events(events, strict=True))
        assert "justified-recovery" not in names(check_events(events, strict=False))

    def test_life_provenance(self):
        events = trace((K.COMPUTE_BEGIN, "a", 2), (K.COMPUTE_END, "a", 2))
        assert "life-provenance" in names(check_events(events))


class TestG3Notifications:
    def test_double_notify_within_one_arming(self):
        events = trace(
            (K.NOTIFY, "b", 1, {"src": "p"}),
            (K.NOTIFY, "b", 1, {"src": "p"}),
        )
        assert "no-double-notify" in names(check_events(events))

    def test_reset_opens_a_fresh_arming(self):
        events = trace(
            (K.NOTIFY, "b", 1, {"src": "p"}),
            (K.RESET, "b", 1),
            (K.NOTIFY, "b", 1, {"src": "p"}),
        )
        assert check_events(events) == []

    def test_join_conservation_needs_spec(self):
        spec = SimpleNamespace(predecessors=lambda key: ("p",) if key == "b" else ())
        premature = trace(
            (K.NOTIFY, "b", 1, {"src": "p"}),
            (K.COMPUTE_BEGIN, "b", 1),  # self-notification never arrived
            (K.COMPUTE_END, "b", 1),
        )
        assert "join-conservation" in names(check_events(premature, spec=spec))
        assert "join-conservation" not in names(check_events(premature, spec=None))

    def test_join_conservation_excess_notifications(self):
        spec = SimpleNamespace(predecessors=lambda key: ("p",))
        events = trace(
            (K.NOTIFY, "b", 1, {"src": "p"}),
            (K.NOTIFY, "b", 1, {"src": "b"}),
            (K.NOTIFY, "b", 1, {"src": "q"}),  # third arrival, joins allow 2
        )
        assert "join-conservation" in names(check_events(events, spec=spec))


class TestG2Status:
    def test_double_computed(self):
        events = trace(
            (K.COMPUTE_BEGIN, "a", 1),
            (K.COMPUTE_END, "a", 1),
            (K.TASK_COMPUTED, "a", 1),
            (K.TASK_COMPUTED, "a", 1),
        )
        assert "status-monotone" in names(check_events(events))

    def test_completed_without_computed(self):
        assert "status-monotone" in names(check_events(trace((K.TASK_COMPLETED, "a", 1))))

    def test_reset_after_publish(self):
        events = trace(
            (K.COMPUTE_BEGIN, "a", 1),
            (K.COMPUTE_END, "a", 1),
            (K.TASK_COMPUTED, "a", 1),
            (K.RESET, "a", 1),
        )
        assert "status-monotone" in names(check_events(events))

    def test_status_restored_not_rederived(self):
        events = trace(
            (K.COMPUTE_BEGIN, "a", 1),
            (K.COMPUTE_END, "a", 1),
            (K.RESET, "a", 1),
            (K.TASK_COMPUTED, "a", 1),  # no COMPUTE_END in the new arming
        )
        assert "status-rederivation" in names(check_events(events))


class TestTraceSanity:
    def test_overlapping_compute_same_worker(self):
        events = trace(
            (K.COMPUTE_BEGIN, "a", 1),
            (K.COMPUTE_BEGIN, "b", 1),
        )
        assert "balanced-compute" in names(check_events(events, partial=True))

    def test_open_compute_at_end_of_trace(self):
        events = trace((K.COMPUTE_BEGIN, "a", 1))
        assert "balanced-compute" in names(check_events(events))
        assert check_events(events, partial=True) == []


class TestAdapters:
    def test_check_log_refuses_lossy_ring(self):
        fake = SimpleNamespace(dropped=3, events=[])
        with pytest.raises(ValueError, match="dropped"):
            check_log(fake)

    def test_jsonl_round_trip(self, tmp_path):
        events = trace(*CLEAN)
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(json.dumps(e.to_dict()) for e in events) + "\n")
        back = events_from_jsonl(path)
        assert [e.kind for e in back] == [e.kind for e in events]
        assert check_events(back, spec=None) == []

    def test_summarize_keeps_catalogue_zeros(self):
        counts = summarize(check_events(trace((K.TASK_COMPLETED, "a", 1))))
        assert set(counts) == set(INVARIANTS)
        assert counts["status-monotone"] == 1
        assert counts["unique-recovery"] == 0
