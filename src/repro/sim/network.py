"""Message-passing network connecting simulated machines.

The network delivers typed messages between machines over the event
scheduler, counting every send and receive per machine (the raw data behind
Figs. 9 and 10).  Failure awareness: messages addressed to a failed machine
are silently dropped, exactly as a crashed desktop would drop them -- that is
the mechanism by which machine failures translate into SALAD lossiness in the
Fig. 8 experiment.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set

from repro.sim.events import EventScheduler
from repro.sim.topology import Topology

if TYPE_CHECKING:
    from repro.sim.machine import SimMachine


@dataclass(eq=False, slots=True)
class Message:
    """A network message (immutable by convention; never mutated after send).

    ``kind`` is a protocol-level tag (e.g. ``"record"``, ``"join"``);
    ``payload`` is arbitrary protocol data.  Sender/recipient are machine
    identifiers (large integers, per paper section 2).

    A plain slots dataclass rather than a frozen one: one Message is built
    per delivery on the simulator's hottest path, and the frozen guard turns
    every field assignment in ``__init__`` into an ``object.__setattr__``
    call.  Nothing compares or hashes messages (``eq=False`` keeps default
    identity semantics explicit).
    """

    sender: int
    recipient: int
    kind: str
    payload: Any


@dataclass
class MachineTraffic:
    """Per-machine traffic counters."""

    sent: int = 0
    received: int = 0
    dropped_to: int = 0  # messages this machine sent that were dropped
    by_kind_sent: Dict[str, int] = field(default_factory=dict)
    by_kind_received: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Sent plus received -- the paper's "messages sent and received"."""
        return self.sent + self.received


def _bump(counters: Dict[str, int], key: str) -> None:
    counters[key] = counters.get(key, 0) + 1


class Network:
    """The simulated network fabric: one latency between every pair.

    Machines register under their identifier; :meth:`send` schedules delivery
    ``latency`` time units later.  A message to an unknown, failed, or
    departed machine is counted as sent and then dropped.

    Messages sharing a delivery timestamp are queued on one scheduler event
    per timestep and delivered in send order when that timestep fires.
    Relative delivery order among messages is exactly that of one event per
    message (time, then send order); the only observable difference is
    against non-message events a driver schedules *between* sends at the
    very same timestamp, which SALAD workloads never do (drivers schedule
    between quiescent rounds).  ``tests/oracles/network.py`` keeps the
    one-event-per-message fabric as the oracle the golden traces compare
    against.

    :class:`TopologyNetwork` replaces the single latency with per-pair
    link-class delays; the degenerate one-site topology
    (``topology.one_site(latency)``) reproduces this fabric's traces
    bit-identically.
    """

    #: No link classes on the flat fabric (see :class:`TopologyNetwork`).
    topology: Optional[Topology] = None

    def __init__(
        self,
        scheduler: Optional[EventScheduler] = None,
        latency: float = 1.0,
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(f"loss probability must be in [0,1]: {loss_probability}")
        self.scheduler = scheduler or EventScheduler()
        self.latency = latency
        self.loss_probability = loss_probability
        # Loss draws come from their own stream, seeded by one draw from
        # *rng* whether or not loss is ever enabled, so a caller's stream
        # advances identically with and without loss, and the loss pattern
        # depends only on *rng*'s state at construction.
        self._loss_rng = random.Random((rng or random.Random(0)).getrandbits(64))
        self._machines: Dict[int, "SimMachine"] = {}
        #: Every identifier that was ever registered; partition() warns on
        #: labels for identifiers outside this set (usually a typo'd id).
        self._ever_registered: Set[int] = set()
        self.traffic: Dict[int, MachineTraffic] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Per-link-class message counters keyed by class name
        #: ("rack"/"lan"/"wan"); only :class:`TopologyNetwork` fills them.
        self.class_sent: Dict[str, int] = {}
        self.class_delivered: Dict[str, int] = {}
        self.class_dropped: Dict[str, int] = {}
        #: In-flight messages per delivery window, keyed by float timestamp.
        #: Each window is one flat list of ``sender, recipient, kind,
        #: payload`` runs; the Message is built at delivery.  Windows hold
        #: thousands of messages, and objects kept alive that long would
        #: drive the garbage collector into extra full passes.
        self._pending: Dict[Any, list] = {}
        # Post-window work (see defer_post_window): callbacks queued while a
        # delivery batch is draining, run once the whole batch has been
        # delivered.  Only populated by machines that opt into deferral.
        self._delivering = False
        self._post_window: List[Any] = []
        # Partition map: machine id -> partition label.  Messages crossing
        # partition labels are dropped.  Unlabeled machines share the
        # implicit default partition.
        self._partition_of: Dict[int, object] = {}

    # -- membership ----------------------------------------------------------

    def register(self, machine: "SimMachine") -> None:
        if machine.identifier in self._machines:
            raise ValueError(f"machine {machine.identifier:#x} already registered")
        self._machines[machine.identifier] = machine
        self._ever_registered.add(machine.identifier)
        self.traffic.setdefault(machine.identifier, MachineTraffic())

    def deregister(self, identifier: int) -> None:
        self._machines.pop(identifier, None)
        # A departed machine leaves the partition map too: keeping its label
        # would let a later re-registration (or a reused identifier) silently
        # inherit a stale partition and drop traffic with no cut in force.
        self._partition_of.pop(identifier, None)

    def machine(self, identifier: int) -> Optional["SimMachine"]:
        return self._machines.get(identifier)

    def machines(self) -> Dict[int, "SimMachine"]:
        return dict(self._machines)

    # -- partitions ------------------------------------------------------------

    def partition(self, groups: "Dict[object, list]") -> None:
        """Split the network: messages between different groups are dropped.

        *groups* maps a label to the machine identifiers in that partition.
        Machines not listed stay in the default partition together.
        """
        unknown = [
            identifier
            for members in groups.values()
            for identifier in members
            if identifier not in self._ever_registered
        ]
        if unknown:
            warnings.warn(
                f"partition() labels {len(unknown)} machine id(s) that were "
                f"never registered (first: {unknown[0]:#x}); the labels are "
                "inert until such a machine joins",
                RuntimeWarning,
                stacklevel=2,
            )
        self._partition_of = {}
        for label, members in groups.items():
            for identifier in members:
                self._partition_of[identifier] = label

    def heal_partition(self) -> None:
        """Restore full connectivity (clears the partition labels)."""
        self._partition_of = {}

    def _partitioned(self, a: int, b: int) -> bool:
        return self._partition_of.get(a) != self._partition_of.get(b)

    def cut(self, *links: str) -> None:
        """Sever named topology links (:class:`TopologyNetwork` only)."""
        raise ValueError("cut() requires a Network with a topology")

    # -- traffic -------------------------------------------------------------

    def _traffic(self, identifier: int) -> MachineTraffic:
        traffic = self.traffic.get(identifier)
        if traffic is None:
            traffic = self.traffic[identifier] = MachineTraffic()
        return traffic

    def send(self, sender: int, recipient: int, kind: str, payload: Any) -> None:
        """Send a message; delivery is scheduled on the event loop."""
        # Subscripts in try blocks, not dict.get: a miss happens once per
        # machine or kind, and this runs once per message.
        try:
            traffic = self.traffic[sender]
        except KeyError:
            traffic = self.traffic[sender] = MachineTraffic()
        traffic.sent += 1
        by_kind = traffic.by_kind_sent
        try:
            by_kind[kind] += 1
        except KeyError:
            by_kind[kind] = 1
        self.messages_sent += 1
        # The loss draw comes before any drop decision, so a message that a
        # partition drops consumes the same randomness as a delivered one:
        # the survivors of runs that differ only in loss or partition
        # settings are pinned.
        if (
            self.loss_probability and self._loss_rng.random() < self.loss_probability
        ) or (self._partition_of and self._partitioned(sender, recipient)):
            traffic.dropped_to += 1
            self.messages_dropped += 1
            return
        # The first message of a timestep schedules the flush; FIFO within
        # the batch preserves send order.
        time = self.scheduler.now + self.latency
        try:
            self._pending[time].extend((sender, recipient, kind, payload))
        except KeyError:
            self._pending[time] = [sender, recipient, kind, payload]
            self.scheduler.schedule(self.latency, lambda: self._deliver_pending(time))

    def defer_post_window(self, callback: Any) -> bool:
        """Queue *callback* to run after the current delivery batch drains.

        Returns True if the callback was queued (a batch is draining right
        now), False otherwise -- in which case the caller must do the work
        eagerly itself.  Each queued callback runs exactly once, in
        first-queued order, at the current timestep; anything it sends joins
        the next delivery window after every handler-originated message of
        this one (the queue drains after the batch, so its sends append to
        the pending batches last).
        """
        if not self._delivering:
            return False
        self._post_window.append(callback)
        return True

    def _deliver_pending(self, time: float) -> None:
        """Deliver one timestep's batch, then run the deferred callbacks.

        Liveness and partitions are re-checked at delivery time: a machine
        that crashes, or a partition that forms, while a message is in
        flight drops it.
        """
        machines = self._machines
        traffic_of = self.traffic
        self._delivering = True
        try:
            fields = iter(self._pending.pop(time))
            for sender, recipient, kind, payload in zip(fields, fields, fields, fields):
                machine = machines.get(recipient)
                if (
                    machine is None
                    or not machine.alive
                    or (self._partition_of and self._partitioned(sender, recipient))
                ):
                    self._traffic(sender).dropped_to += 1
                    self.messages_dropped += 1
                    continue
                # A registered machine always has a traffic entry.
                traffic = traffic_of[recipient]
                traffic.received += 1
                by_kind = traffic.by_kind_received
                try:
                    by_kind[kind] += 1
                except KeyError:
                    by_kind[kind] = 1
                self.messages_delivered += 1
                machine.receive(Message(sender, recipient, kind, payload))
        finally:
            self._delivering = False
        self._run_post_window()

    def _run_post_window(self) -> None:
        if self._post_window:
            callbacks, self._post_window = self._post_window, []
            for callback in callbacks:
                callback()

    def run(self, **kwargs: Any) -> int:
        """Drain the event loop (delegates to the scheduler)."""
        return self.scheduler.run(**kwargs)


class TopologyNetwork(Network):
    """The fabric over a :class:`repro.sim.topology.Topology`.

    The flat latency is replaced by the per-pair link-class delay (rack/lan/
    wan ticks of the topology quantum), delivery windows are keyed by
    integer tick, per-class message counters are kept, and named links can
    be severed with :meth:`cut`/:meth:`heal` in addition to the flat
    ``partition()`` labels.
    """

    def __init__(
        self,
        scheduler: Optional[EventScheduler],
        topology: Topology,
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(scheduler, topology.quantum, loss_probability, rng)
        self.topology = topology
        #: Windows here are keyed by integer tick and hold Message objects.
        #: The integer tick of the batch currently being delivered, so
        #: handler re-sends window off an exact integer instead of
        #: re-deriving it from the float clock.
        self._current_tick: Optional[int] = None
        #: Named topology links currently severed (see cut/heal).
        self._severed: Set[str] = set()

    def heal_partition(self) -> None:
        """Restore full connectivity (clears labels and topology cuts)."""
        super().heal_partition()
        self._severed.clear()

    def cut(self, *links: str) -> None:
        """Sever named topology links; messages crossing them are dropped.

        Cuts compose: each call adds to the severed set, and :meth:`heal`
        restores links independently -- unlike the flat ``partition()`` map,
        which is replaced wholesale per call.  Like partitions, cuts are
        re-checked at delivery time, so a cut that forms while a message is
        in flight severs it.
        """
        self.topology.validate_links(links)
        self._severed.update(links)

    def heal(self, *links: str) -> None:
        """Heal named links severed by :meth:`cut` (no args: heal all cuts)."""
        if not links:
            self._severed.clear()
            return
        self._severed.difference_update(links)

    def severed_links(self) -> Set[str]:
        """The currently severed link names (a copy)."""
        return set(self._severed)

    def _link(self, sender: int, recipient: int):
        """The pair's link class name and delay, and whether the link is cut."""
        link_name, link_class = self.topology.link(sender, recipient)
        return link_class.name, link_class.latency_ticks, link_name in self._severed

    def _drop(self, sender: int, class_name: str) -> None:
        self._traffic(sender).dropped_to += 1
        self.messages_dropped += 1
        _bump(self.class_dropped, class_name)

    def send(self, sender: int, recipient: int, kind: str, payload: Any) -> None:
        class_name, ticks, severed = self._link(sender, recipient)
        _bump(self.class_sent, class_name)
        traffic = self._traffic(sender)
        traffic.sent += 1
        _bump(traffic.by_kind_sent, kind)
        self.messages_sent += 1
        # Same draw-before-drop order as the flat fabric.
        lost = bool(
            self.loss_probability and self._loss_rng.random() < self.loss_probability
        )
        if lost or severed or (self._partition_of and self._partitioned(sender, recipient)):
            self._drop(sender, class_name)
            return
        # The delivery window is an integer tick and the timestamp a single
        # multiplication off it, so equal nominal delays always share a
        # batch regardless of how many float additions produced "now".
        due = self._now_tick() + ticks
        message = Message(sender, recipient, kind, payload)
        pending = self._pending.get(due)
        if pending is None:
            self._pending[due] = [message]
            self.scheduler.schedule_at(
                due * self.topology.quantum, lambda: self._deliver_pending(due)
            )
        else:
            pending.append(message)

    def _now_tick(self) -> int:
        """The current integer tick of the topology quantum clock.

        Exact while a delivery batch is draining (the batch key *is* the
        tick); between batches -- driver sends from quiescence -- the float
        clock is a tick multiple by construction, so rounding recovers the
        integer exactly.
        """
        if self._current_tick is not None:
            return self._current_tick
        return round(self.scheduler.now / self.topology.quantum)

    def _deliver_pending(self, tick: int) -> None:
        self._current_tick = tick
        self._delivering = True
        try:
            for message in self._pending.pop(tick):
                sender, recipient = message.sender, message.recipient
                class_name, _, severed = self._link(sender, recipient)
                machine = self._machines.get(recipient)
                if (
                    machine is None
                    or not machine.alive
                    or severed
                    or (self._partition_of and self._partitioned(sender, recipient))
                ):
                    self._drop(sender, class_name)
                    continue
                traffic = self._traffic(recipient)
                traffic.received += 1
                _bump(traffic.by_kind_received, message.kind)
                self.messages_delivered += 1
                _bump(self.class_delivered, class_name)
                machine.receive(message)
            self._delivering = False
            self._run_post_window()
        finally:
            self._delivering = False
            self._current_tick = None

