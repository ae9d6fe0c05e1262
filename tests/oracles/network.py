"""The flat fabric with one scheduler event per message.

:class:`repro.sim.network.Network` queues every message that shares a
delivery timestamp on one scheduler event.  This oracle schedules each
message as its own event -- the simulator's original delivery -- and
restates the drop checks and counters independently, so the golden traces
can assert that batching changes nothing observable.
"""

from repro.sim.network import MachineTraffic, Message, Network


class PerMessageNetwork(Network):
    """One scheduler event per message; traces equal the batched fabric's."""

    def send(self, sender, recipient, kind, payload):
        traffic = self.traffic.setdefault(sender, MachineTraffic())
        traffic.sent += 1
        traffic.by_kind_sent[kind] = traffic.by_kind_sent.get(kind, 0) + 1
        self.messages_sent += 1
        lost = bool(
            self.loss_probability and self._loss_rng.random() < self.loss_probability
        )
        if lost or self._partitioned(sender, recipient):
            traffic.dropped_to += 1
            self.messages_dropped += 1
            return
        message = Message(sender, recipient, kind, payload)
        self.scheduler.schedule(self.latency, lambda: self._deliver_one(message))

    def _deliver_one(self, message):
        machine = self._machines.get(message.recipient)
        if (
            machine is None
            or not machine.alive
            or self._partitioned(message.sender, message.recipient)
        ):
            self.traffic.setdefault(message.sender, MachineTraffic()).dropped_to += 1
            self.messages_dropped += 1
            return
        traffic = self.traffic.setdefault(message.recipient, MachineTraffic())
        traffic.received += 1
        received = traffic.by_kind_received
        received[message.kind] = received.get(message.kind, 0) + 1
        self.messages_delivered += 1
        machine.receive(message)
