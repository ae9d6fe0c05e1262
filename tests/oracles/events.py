"""The seed's binary-heap event loop: the oracle for the calendar queue.

:class:`repro.sim.events.EventScheduler` buckets events per timestamp; this
engine keeps one ``(time, sequence, action)`` record per event on a single
heap.  The scheduler contract suite and the golden traces run against both.
"""

import heapq
import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.events import Action, SimulationError


@dataclass(order=True)
class _Event:
    time: float
    sequence: int
    action: Action = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class _ReferenceEventHandle:
    """Handle returned by :meth:`ReferenceEventScheduler.schedule`."""

    def __init__(self, event: _Event):
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time(self) -> float:
        return self._event.time


class ReferenceEventScheduler:
    """The seed's priority-queue event loop, kept as the oracle engine.

    One ``(time, sequence, action)`` record per event on a single binary
    heap.  Semantically identical to :class:`EventScheduler`; roughly 2-4x
    slower on message-heavy workloads because every event pays a heap
    push/pop with record comparisons.
    """

    def __init__(self) -> None:
        self._queue: List[_Event] = []
        self._sequence = itertools.count()
        self.now: float = 0.0
        self.events_executed = 0

    def schedule(self, delay: float, action: Action) -> _ReferenceEventHandle:
        """Schedule *action* to run *delay* time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = _Event(time=self.now + delay, sequence=next(self._sequence), action=action)
        heapq.heappush(self._queue, event)
        return _ReferenceEventHandle(event)

    def schedule_at(self, time: float, action: Action) -> _ReferenceEventHandle:
        """Schedule *action* at absolute virtual *time*."""
        return self.schedule(time - self.now, action)

    def __len__(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)

    def step(self) -> bool:
        """Execute the next pending event; return False if none remain."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = event.time
            event.action()
            self.events_executed += 1
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until quiescence, virtual time *until*, or *max_events*.

        Returns the number of events executed by this call.
        """
        executed = 0
        while self._queue:
            next_event = self._peek()
            if next_event is None:
                break
            if until is not None and next_event.time > until:
                break
            if max_events is not None and executed >= max_events:
                break
            self.step()
            executed += 1
        if until is not None and self.now < until and not self._has_pending_before(until):
            self.now = until
        return executed

    def _peek(self) -> Optional[_Event]:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0] if self._queue else None

    def _has_pending_before(self, time: float) -> bool:
        event = self._peek()
        return event is not None and event.time <= time
