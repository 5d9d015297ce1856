"""The schedulers' instance attributes stay few enough for CPython's
fast attribute layout.

Every hot-path routine reads a handful of ``self.`` attributes per task.
On CPython 3.11 an instance whose class has seen at most 29 attribute
names keeps them in the class's shared-key layout; a 30th made those
loads ~15 % slower (``timeit`` on the FT scheduler, CPython 3.11.7) and
``grid_inline`` ~4 % slower end to end.  A new attribute on the
schedulers must replace one or live somewhere else.
"""

from repro.core import FTScheduler, NabbitScheduler
from repro.graph.builders import grid_graph
from repro.obs.events import EventLog
from repro.runtime import InlineRuntime


def test_an_ft_scheduler_has_at_most_29_instance_attributes():
    for log in (None, EventLog()):
        for scheduler in (FTScheduler, NabbitScheduler):
            assert len(vars(scheduler(grid_graph(2, 2), InlineRuntime(), event_log=log))) <= 29
