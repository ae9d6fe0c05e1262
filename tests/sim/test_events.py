"""The discrete-event schedulers.

The whole contract suite runs against both engines -- the calendar-queue
:class:`EventScheduler` and the heap-based :class:`ReferenceEventScheduler`
oracle -- via the ``sched_cls`` fixture; the :class:`TestCalendarQueueEdges`
cases target bucket/heap interactions specific to the calendar engine.
"""

import pytest

from repro.sim.events import EventScheduler, SimulationError
from tests.oracles.events import ReferenceEventScheduler


@pytest.fixture(params=[EventScheduler, ReferenceEventScheduler])
def sched_cls(request):
    return request.param


class TestScheduling:
    def test_runs_in_time_order(self, sched_cls):
        sched = sched_cls()
        log = []
        sched.schedule(3.0, lambda: log.append("c"))
        sched.schedule(1.0, lambda: log.append("a"))
        sched.schedule(2.0, lambda: log.append("b"))
        sched.run()
        assert log == ["a", "b", "c"]

    def test_fifo_tie_breaking(self, sched_cls):
        sched = sched_cls()
        log = []
        for tag in "abc":
            sched.schedule(1.0, lambda t=tag: log.append(t))
        sched.run()
        assert log == ["a", "b", "c"]

    def test_now_advances_to_event_time(self, sched_cls):
        sched = sched_cls()
        seen = []
        sched.schedule(5.0, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [5.0]
        assert sched.now == 5.0

    def test_events_can_schedule_events(self, sched_cls):
        sched = sched_cls()
        log = []

        def first():
            log.append("first")
            sched.schedule(1.0, lambda: log.append("second"))

        sched.schedule(1.0, first)
        sched.run()
        assert log == ["first", "second"]
        assert sched.now == 2.0

    def test_negative_delay_rejected(self, sched_cls):
        with pytest.raises(SimulationError):
            sched_cls().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self, sched_cls):
        sched = sched_cls()
        log = []
        sched.schedule_at(4.0, lambda: log.append(sched.now))
        sched.run()
        assert log == [4.0]


class TestRunLimits:
    def test_until_stops_before_later_events(self, sched_cls):
        sched = sched_cls()
        log = []
        sched.schedule(1.0, lambda: log.append(1))
        sched.schedule(10.0, lambda: log.append(10))
        sched.run(until=5.0)
        assert log == [1]
        assert sched.now == 5.0
        sched.run()
        assert log == [1, 10]

    def test_max_events(self, sched_cls):
        sched = sched_cls()
        log = []
        for i in range(5):
            sched.schedule(float(i + 1), lambda i=i: log.append(i))
        executed = sched.run(max_events=3)
        assert executed == 3
        assert log == [0, 1, 2]

    def test_run_returns_count(self, sched_cls):
        sched = sched_cls()
        for i in range(4):
            sched.schedule(1.0, lambda: None)
        assert sched.run() == 4


class TestCancellation:
    def test_cancelled_event_does_not_run(self, sched_cls):
        sched = sched_cls()
        log = []
        handle = sched.schedule(1.0, lambda: log.append("x"))
        handle.cancel()
        sched.run()
        assert log == []
        assert handle.cancelled

    def test_len_ignores_cancelled(self, sched_cls):
        sched = sched_cls()
        keep = sched.schedule(1.0, lambda: None)
        drop = sched.schedule(2.0, lambda: None)
        drop.cancel()
        assert len(sched) == 1

    def test_step_skips_cancelled(self, sched_cls):
        sched = sched_cls()
        log = []
        sched.schedule(1.0, lambda: log.append("a")).cancel()
        sched.schedule(2.0, lambda: log.append("b"))
        assert sched.step() is True
        assert log == ["b"]


class TestCalendarQueueEdges:
    """Bucket/heap interactions specific to the calendar-queue engine."""

    def test_zero_delay_during_drain_runs_same_timestep(self):
        # Scheduling with delay 0 from inside an event must append behind
        # the active bucket's cursor and run before any later timestamp.
        sched = EventScheduler()
        log = []

        def first():
            log.append("first")
            sched.schedule(0.0, lambda: log.append("chained"))

        sched.schedule(1.0, first)
        sched.schedule(2.0, lambda: log.append("later"))
        sched.run()
        assert log == ["first", "chained", "later"]

    def test_earlier_schedule_after_until_peek(self):
        # run(until=...) peeks at a future bucket without advancing now;
        # an event then scheduled at an *earlier* absolute time must still
        # run first (regression test for the active-bucket cache: the cache
        # is only valid while its timestamp is the heap minimum).
        sched = EventScheduler()
        log = []
        sched.schedule(10.0, lambda: log.append("late"))
        sched.run(until=5.0)  # peeks the t=10 bucket, executes nothing
        assert sched.now == 5.0
        sched.schedule(1.0, lambda: log.append("early"))  # t=6 < 10
        sched.run()
        assert log == ["early", "late"]

    def test_bucket_reuse_after_drain(self):
        # A timestamp whose bucket drained and was retired can be reused by
        # a later schedule that lands on the same float value; the heap may
        # briefly hold duplicate entries (lazy deletion) but every event
        # still runs exactly once in order.
        sched = EventScheduler()
        log = []
        sched.schedule(2.0, lambda: log.append("a"))
        sched.run()
        assert sched.now == 2.0
        sched.schedule(0.0, lambda: log.append("b"))  # recreates the t=2 bucket
        sched.schedule(1.0, lambda: log.append("c"))
        sched.run()
        assert log == ["a", "b", "c"]

    def test_all_cancelled_bucket_is_skipped(self):
        sched = EventScheduler()
        log = []
        for _ in range(3):
            sched.schedule(1.0, lambda: log.append("x")).cancel()
        sched.schedule(2.0, lambda: log.append("kept"))
        assert sched.run() == 1
        assert log == ["kept"]
        assert len(sched) == 0

    def test_interleaved_engines_agree_on_random_workload(self):
        # Drive both engines through an identical pseudo-random schedule of
        # nested events and cancellations; logs must match exactly.
        import random

        def drive(cls):
            rng = random.Random(42)
            sched = cls()
            log = []
            handles = []

            def make(tag, depth):
                def action():
                    log.append((tag, sched.now))
                    if depth < 3:
                        for k in range(rng.randrange(3)):
                            delay = rng.choice([0.0, 0.5, 1.0, 1.0, 2.5])
                            handles.append(
                                sched.schedule(delay, make(f"{tag}.{k}", depth + 1))
                            )
                    if handles and rng.random() < 0.3:
                        handles[rng.randrange(len(handles))].cancel()

                return action

            for i in range(20):
                sched.schedule(rng.choice([0.0, 1.0, 1.0, 3.0]), make(str(i), 0))
            sched.run(max_events=5000)
            return log

        assert drive(EventScheduler) == drive(ReferenceEventScheduler)
