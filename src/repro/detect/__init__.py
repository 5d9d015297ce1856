"""Silent-fault detection: turn SDCs into the faults the scheduler heals.

The paper's FT scheduler recovers from *detected* faults and leaves
detection out of scope.  This subsystem closes the loop, following the
selective-replication line of work (Reitz & Fohry; Nather, Fohry &
Reitz):

* :class:`ChecksumStore` -- fingerprints every published block version
  and verifies on consumer access; a mismatch raises the existing
  corruption path.
* :class:`SilentFaultInjector` -- mutates block payloads *without*
  setting flags; only a detector (or a wrong answer) reveals the fault.
* :class:`ReplicationDetector` + policies -- duplicate-and-compare /
  triple-vote re-execution of selected tasks, wired as scheduler hooks.
* :func:`account_escapes` -- post-run coverage: injected vs detected vs
  escaped, with SDC_* events in the structured log.

Workflow::

    from repro.core.hooks import CompositeHooks
    from repro.detect import (ChecksumStore, ReplicationDetector,
                              SilentFaultInjector, plan_silent_faults,
                              account_escapes)

    store = ChecksumStore(app.ft_policy)
    app.seed_store(store)
    plan = plan_silent_faults(app, count=2, seed=7)
    injector = SilentFaultInjector(plan, app, store)
    detector = ReplicationDetector(app, store)  # optional second layer
    log = EventLog()
    FTScheduler(app, runtime, store=store,
                hooks=CompositeHooks(injector, detector),
                event_log=log).run()
    report = account_escapes(injector, log)
    print(report.summary())   # coverage, escapes, replica overhead

See docs/DETECTION.md for the threat model and measured overheads.
"""

from repro.detect.checksum import ChecksumStore, DetectionStats, SharedMemoryChecksumStore
from repro.detect.digest import (
    DEFAULT_DIGEST,
    DIGESTS,
    canonical_bytes,
    digest_from_name,
    fingerprint,
)
from repro.detect.policy import (
    DetectionPolicy,
    ReplicateAll,
    ReplicateByCriticality,
    ReplicateNone,
    ReplicateSampled,
    policy_from_name,
)
from repro.detect.replicate import ReplicaContext, ReplicationDetector
from repro.detect.report import DetectionReport, account_escapes
from repro.detect.silent import (
    SilentFaultInjector,
    default_mutator,
    plan_silent_faults,
    plan_sink_fault,
)

__all__ = [
    "ChecksumStore",
    "SharedMemoryChecksumStore",
    "DetectionStats",
    "canonical_bytes",
    "fingerprint",
    "digest_from_name",
    "DIGESTS",
    "DEFAULT_DIGEST",
    "DetectionPolicy",
    "ReplicateAll",
    "ReplicateNone",
    "ReplicateByCriticality",
    "ReplicateSampled",
    "policy_from_name",
    "ReplicationDetector",
    "ReplicaContext",
    "SilentFaultInjector",
    "default_mutator",
    "plan_silent_faults",
    "plan_sink_fault",
    "DetectionReport",
    "account_escapes",
]
