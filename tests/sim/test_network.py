"""The message-passing network: delivery, counters, loss, failure drops."""

import random

import pytest

from repro.sim.events import EventScheduler
from repro.sim.machine import SimMachine
from repro.sim.network import Network
from tests.oracles.network import PerMessageNetwork


class Echo(SimMachine):
    """Test machine that logs pings and answers with pongs."""

    def __init__(self, identifier, network):
        super().__init__(identifier, network)
        self.log = []
        self.on("ping", self._ping)
        self.on("pong", lambda msg: self.log.append(("pong", msg.sender)))

    def _ping(self, msg):
        self.log.append(("ping", msg.sender))
        self.send(msg.sender, "pong")


def make_net(loss=0.0):
    return Network(EventScheduler(), latency=1.0, loss_probability=loss, rng=random.Random(1))


class TestDelivery:
    def test_roundtrip(self):
        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        a.send(2, "ping")
        net.run()
        assert b.log == [("ping", 1)]
        assert a.log == [("pong", 2)]

    def test_traffic_counters(self):
        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        a.send(2, "ping")
        net.run()
        assert net.traffic[1].sent == 1 and net.traffic[1].received == 1
        assert net.traffic[2].sent == 1 and net.traffic[2].received == 1
        assert net.traffic[1].total == 2
        assert net.traffic[1].by_kind_sent == {"ping": 1}
        assert net.traffic[2].by_kind_received == {"ping": 1}

    def test_latency_orders_delivery(self):
        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        a.send(2, "ping")
        assert b.log == []  # not yet delivered
        net.run()
        assert b.log


class TestDrops:
    def test_message_to_unknown_machine_dropped(self):
        net = make_net()
        a = Echo(1, net)
        a.send(99, "ping")
        net.run()
        assert net.messages_dropped == 1
        assert net.traffic[1].dropped_to == 1

    def test_message_to_failed_machine_dropped(self):
        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        b.fail()
        a.send(2, "ping")
        net.run()
        assert b.log == []
        assert net.messages_dropped == 1

    def test_failed_machine_sends_nothing(self):
        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        a.fail()
        a.send(2, "ping")
        net.run()
        assert b.log == []
        assert net.messages_sent == 0

    def test_recovered_machine_receives_again(self):
        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        b.fail()
        b.recover()
        a.send(2, "ping")
        net.run()
        assert b.log == [("ping", 1)]

    def test_departed_machine_deregistered(self):
        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        b.depart()
        assert net.machine(2) is None
        a.send(2, "ping")
        net.run()
        assert net.messages_dropped == 1


class TestLoss:
    def test_loss_probability_one_drops_everything(self):
        net = make_net(loss=1.0)
        a, b = Echo(1, net), Echo(2, net)
        for _ in range(20):
            a.send(2, "ping")
        net.run()
        assert b.log == []
        assert net.messages_dropped == 20

    def test_loss_probability_statistics(self):
        net = make_net(loss=0.5)
        a, b = Echo(1, net), Echo(2, net)
        for _ in range(400):
            net.send(1, 2, "ping", None)
        net.run()
        delivered = len(b.log)
        assert 140 < delivered < 260  # ~200 +- 3 sigma

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            Network(EventScheduler(), loss_probability=1.5)


class TestLossSubstream:
    """Loss draws come from a dedicated substream, drawn before any drop
    decision, so the delivery timestamps of surviving messages are pinned:
    identical across runs that differ only in loss probability or partition
    layout."""

    @staticmethod
    def _delivery_times(loss=0.0, partition=None):
        net = Network(
            EventScheduler(),
            latency=1.0,
            loss_probability=loss,
            rng=random.Random(7),
        )
        received = {}

        class Stamp(SimMachine):
            def __init__(self, identifier, network):
                super().__init__(identifier, network)
                self.on(
                    "tag",
                    lambda msg: received.setdefault(msg.payload, net.scheduler.now),
                )

        Stamp(1, net), Stamp(2, net), Stamp(3, net)
        if partition:
            net.partition(partition)

        def launch(i):
            return lambda: net.send(1, 2 if i % 2 else 3, "tag", i)

        # Sends spread over 50 timesteps, so surviving tags carry distinct
        # delivery times worth pinning.
        for i in range(200):
            net.scheduler.schedule(i // 4 * 0.5, launch(i))
        net.run()
        return received

    def test_loss_pins_surviving_delivery_times(self):
        lossless = self._delivery_times()
        lossy = self._delivery_times(loss=0.4)
        assert 0 < len(lossy) < len(lossless)
        assert all(lossless[tag] == time for tag, time in lossy.items())

    def test_partition_pins_surviving_delivery_times(self):
        connected = self._delivery_times()
        cut = self._delivery_times(partition={"island": [3]})
        assert sorted(cut) == [tag for tag in sorted(connected) if tag % 2]
        assert all(connected[tag] == time for tag, time in cut.items())

    def test_loss_seed_independent_of_main_stream_consumption(self):
        # The network takes one draw from the caller's rng, at construction:
        # what the caller draws afterwards cannot change which tags die, and
        # the caller's stream advances by exactly that one draw.
        def survivors(draws_after):
            rng = random.Random(7)
            net = Network(
                EventScheduler(), latency=1.0, loss_probability=0.4, rng=rng
            )
            for _ in range(draws_after):
                rng.random()
            log = []

            class Sink(SimMachine):
                def __init__(self, identifier, network):
                    super().__init__(identifier, network)
                    self.on("tag", lambda msg: log.append(msg.payload))

            Sink(1, net), Sink(2, net)
            for i in range(200):
                net.send(1, 2, "tag", i)
            net.run()
            return sorted(log)

        assert survivors(0) == survivors(50)
        rng = random.Random(7)
        Network(EventScheduler(), rng=rng)
        expected = random.Random(7)
        expected.getrandbits(64)
        assert rng.random() == expected.random()


class TestRegistration:
    def test_duplicate_identifier_rejected(self):
        net = make_net()
        Echo(1, net)
        with pytest.raises(ValueError):
            Echo(1, net)


class TestDeliveryBatching:
    """Per-timestep batching must be invisible relative to per-message mode."""

    def test_batched_and_unbatched_deliver_identically(self):
        def drive(batch):
            network_cls = Network if batch else PerMessageNetwork
            net = network_cls(EventScheduler(), latency=1.0, rng=random.Random(1))
            a, b, c = Echo(1, net), Echo(2, net), Echo(3, net)
            a.send(2, "ping")
            a.send(3, "ping")
            b.send(3, "ping")
            net.run()
            return a.log, b.log, c.log, net.messages_delivered

        assert drive(True) == drive(False)

    def test_one_scheduler_event_per_timestep(self):
        net = Network(EventScheduler(), latency=1.0, rng=random.Random(1))
        a, b = Echo(1, net), Echo(2, net)
        for _ in range(10):
            net.send(1, 2, "ping", None)
        # All ten messages share the t=1 delivery timestep: one flush event.
        assert len(net.scheduler) == 1
        net.run()
        assert len(b.log) == 10

    def test_batch_send_order_preserved(self):
        net = Network(EventScheduler(), latency=1.0, rng=random.Random(1))
        received = []

        class Collector(SimMachine):
            def __init__(self, identifier, network):
                super().__init__(identifier, network)
                self.on("tag", lambda msg: received.append(msg.payload))

        Collector(1, net)
        Collector(2, net)
        for i in range(8):
            net.send(1, 2, "tag", i)
        net.run()
        assert received == list(range(8))
