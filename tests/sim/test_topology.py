"""The site/rack topology model and its Network integration.

Covers deterministic placement, link naming and latency classes, the CLI
spec parser,
named-link cuts (including mid-flight severing), per-class counters, the
integer-tick delivery windows (equal nominal delays must share one batch,
and chained hops must not accumulate float drift), and the headline
equivalence claim: the degenerate one-site topology is trace-identical to
the flat fabric.
"""

import random

import pytest

from repro.core.fingerprint import synthetic_fingerprint
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig
from repro.sim.events import EventScheduler
from repro.sim.machine import SimMachine
from repro.sim.network import Network, TopologyNetwork
from repro.sim.topology import (
    LinkClass,
    Topology,
    one_site,
    parse_topology,
    topology_presets,
)


class Probe(SimMachine):
    def __init__(self, identifier, network):
        super().__init__(identifier, network)
        self.received = []
        self.on("msg", lambda m: self.received.append((self.network.scheduler.now, m.sender)))


def corporate() -> Topology:
    return parse_topology("corporate")


class TestPlacement:
    def test_deterministic_and_in_range(self):
        topo = corporate()
        for identifier in (0, 1, 0xDEADBEEF, (1 << 160) - 1):
            site, rack = topo.place(identifier)
            assert (site, rack) == topo.place(identifier)
            assert 0 <= site < topo.sites
            assert 0 <= rack < topo.racks_per_site

    def test_same_placement_across_instances(self):
        a, b = corporate(), corporate()
        for identifier in range(100):
            assert a.place(identifier) == b.place(identifier)

    def test_placement_independent_of_low_bits(self):
        # SALAD keys cell geometry off the low identifier bits; if placement
        # depended on them, every cell would collapse onto one site.
        # Machines differing only in the low 2 bits must still scatter
        # across sites.
        topo = corporate()
        base = 0xABCDEF << 8
        sites = {topo.place(base | low)[0] for low in range(4)}
        assert len(sites) > 1

    def test_high_bits_matter(self):
        # 160-bit identifiers: bits above 64 must influence placement.
        topo = corporate()
        placements = {topo.place(1 << shift) for shift in (0, 70, 150)}
        assert len(placements) > 1

    def test_one_site_places_everything_together(self):
        topo = one_site()
        assert {topo.place(i) for i in range(50)} == {(0, 0)}


class TestLinks:
    def test_link_classes_by_relative_position(self):
        topo = Topology(sites=3, racks_per_site=3)
        ids = range(200)
        seen = set()
        for a in ids:
            for b in ids:
                name, cls = topo.link(a, b)
                seen.add(cls.name)
                site_a, rack_a = topo.place(a)
                site_b, rack_b = topo.place(b)
                if site_a != site_b:
                    assert cls.name == "wan"
                    lo, hi = sorted((site_a, site_b))
                    assert name == f"wan:{lo}-{hi}"
                elif rack_a != rack_b:
                    assert (name, cls.name) == (f"lan:{site_a}", "lan")
                else:
                    assert (name, cls.name) == (f"rack:{site_a}.{rack_a}", "rack")
        assert seen == {"rack", "lan", "wan"}

    def test_link_is_symmetric(self):
        topo = corporate()
        for a, b in [(3, 77), (12, 150), (0, 1)]:
            assert topo.link(a, b) == topo.link(b, a)

    def test_delay_is_ticks_times_quantum(self):
        topo = Topology(sites=2, racks_per_site=1, wan_ticks=10, quantum=0.5)
        a, b = 0, next(
            i for i in range(1, 100) if topo.place(i)[0] != topo.place(0)[0]
        )
        assert topo.delay_ticks(a, b) == 10
        assert topo.delay(a, b) == 5.0

    def test_link_names_enumerate_the_topology(self):
        topo = Topology(sites=2, racks_per_site=2)
        names = topo.link_names()
        assert set(names) == {
            "rack:0.0", "rack:0.1", "rack:1.0", "rack:1.1",
            "lan:0", "lan:1", "wan:0-1",
        }

    def test_wan_links_filter_by_site(self):
        topo = Topology(sites=3)
        assert topo.wan_links() == ["wan:0-1", "wan:0-2", "wan:1-2"]
        assert topo.wan_links(site=1) == ["wan:0-1", "wan:1-2"]

    def test_validate_links_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown topology links"):
            corporate().validate_links(["wan:0-9"])

    def test_link_class_needs_positive_ticks(self):
        with pytest.raises(ValueError, match="latency_ticks"):
            LinkClass("rack", 0, "x")


class TestUniformity:
    """A topology is uniform when every pair of machines sees one delay --
    the property behind the one-site preset's identity with the flat fabric."""

    @staticmethod
    def _pair_delays(topo, ids=range(64)):
        return {topo.delay(a, b) for a in ids for b in ids if a != b}

    def test_one_site_is_uniform(self):
        assert self._pair_delays(one_site()) == {1.0}
        assert self._pair_delays(one_site(0.25)) == {0.25}

    def test_mixed_classes_not_uniform(self):
        assert len(self._pair_delays(corporate())) > 1
        assert len(self._pair_delays(parse_topology("campus"))) > 1

    def test_unreachable_classes_do_not_break_uniformity(self):
        # Single rack per site: the lan class can never occur, so only
        # rack and wan ticks need to agree.
        topo = Topology(sites=2, racks_per_site=1, rack_ticks=3, lan_ticks=99, wan_ticks=3)
        ids = range(64)
        assert {topo.link(a, b)[1].name for a in ids for b in ids if a != b} == {
            "rack",
            "wan",
        }
        assert {topo.delay_ticks(a, b) for a in ids for b in ids if a != b} == {3}


class TestParse:
    def test_flat_forms(self):
        for spec in (None, "", "  ", "none", "flat", "NONE"):
            assert parse_topology(spec) is None

    def test_presets(self):
        assert topology_presets() == ["campus", "corporate", "one-site"]
        topo = parse_topology("corporate")
        assert (topo.sites, topo.racks_per_site) == (4, 4)
        single = parse_topology("one-site")
        assert (single.sites, single.racks_per_site) == (1, 1)

    def test_custom_spec(self):
        topo = parse_topology("sites=2,racks=3,rack=2,lan=4,wan=20,quantum=0.5")
        assert (topo.sites, topo.racks_per_site) == (2, 3)
        assert topo.rack_class.latency_ticks == 2
        assert topo.lan_class.latency_ticks == 4
        assert topo.wan_class.latency_ticks == 20
        assert topo.quantum == 0.5

    def test_preset_with_overrides(self):
        topo = parse_topology("corporate,wan=20")
        assert topo.wan_class.latency_ticks == 20
        assert (topo.sites, topo.racks_per_site) == (4, 4)

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown topology preset"):
            parse_topology("galaxy")
        with pytest.raises(ValueError, match="unknown topology key"):
            parse_topology("hops=3")
        with pytest.raises(ValueError, match="bad value"):
            parse_topology("sites=many")
        with pytest.raises(ValueError, match="must come first"):
            parse_topology("wan=20,corporate")


def topo_net(topo, **kwargs):
    return TopologyNetwork(EventScheduler(), topo, rng=random.Random(1), **kwargs)


def pick_pair(topo, wanted):
    """Two registrable ids joined by a link of class *wanted*."""
    for a in range(200):
        for b in range(a + 1, 200):
            if topo.link(a, b)[1].name == wanted:
                return a, b
    raise AssertionError(f"no {wanted} pair in 200 ids")


class TestNetworkTopology:
    def test_per_pair_delay_from_link_class(self):
        topo = Topology(sites=2, racks_per_site=1, rack_ticks=1, wan_ticks=10)
        net = topo_net(topo)
        a, b = pick_pair(topo, "wan")
        pa, pb = Probe(a, net), Probe(b, net)
        pa.send(b, "msg")
        net.run()
        assert pb.received == [(10.0, a)]

    def test_class_counters_track_sends(self):
        topo = corporate()
        net = topo_net(topo)
        a, b = pick_pair(topo, "wan")
        c, d = pick_pair(topo, "rack")
        machines = {i: Probe(i, net) for i in {a, b, c, d}}
        machines[a].send(b, "msg")
        machines[c].send(d, "msg")
        net.run()
        assert net.class_sent == {"wan": 1, "rack": 1}
        assert net.class_delivered == {"wan": 1, "rack": 1}
        assert net.class_dropped == {}

    def test_flat_network_keeps_counters_empty(self):
        net = Network(EventScheduler())
        a, b = Probe(1, net), Probe(2, net)
        a.send(2, "msg")
        net.run()
        assert net.class_sent == {}

    def test_equal_nominal_delays_share_one_batch(self):
        # The satellite-2 regression: delivery windows are keyed by integer
        # tick, so two same-class sends issued together occupy one pending
        # batch (one scheduler event), never two float-keyed near-twins.
        topo = one_site(0.1)
        net = topo_net(topo)
        a, b, c = Probe(1, net), Probe(2, net), Probe(3, net)
        a.send(2, "msg")
        a.send(3, "msg")
        assert list(net._pending) == [1]
        assert len(net._pending[1]) == 2
        net.run()
        assert b.received == [(0.1, 1)] and c.received == [(0.1, 1)]

    def test_chained_hops_do_not_accumulate_float_drift(self):
        # Ten 0.1-quantum hops: summing floats gives 0.9999999999999999,
        # tick * quantum gives exactly 1.0.  The handler-relay chain is the
        # adversarial case -- every hop re-derives "now" mid-delivery.
        topo = one_site(0.1)
        net = topo_net(topo)

        class Relay(SimMachine):
            def __init__(self, identifier, network):
                super().__init__(identifier, network)
                self.on("hop", self._hop)

            def _hop(self, message):
                if message.payload < 10:
                    self.send(message.sender, "hop", message.payload + 1)

        a, b = Relay(1, net), Relay(2, net)
        a.send(2, "hop", 1)
        net.run()
        assert sum(0.1 for _ in range(10)) != 1.0  # the drift being guarded
        assert net.scheduler.now == 1.0

    def test_driver_send_from_quiescence_lands_on_next_tick(self):
        topo = one_site(0.5)
        net = topo_net(topo)
        a, b = Probe(1, net), Probe(2, net)
        a.send(2, "msg")
        net.run()
        a.send(2, "msg")  # from quiescence at t=0.5: tick recovered by rounding
        net.run()
        assert b.received == [(0.5, 1), (1.0, 1)]


class TestCuts:
    def test_cut_requires_topology(self):
        with pytest.raises(ValueError, match="requires a Network with a topology"):
            Network(EventScheduler()).cut("wan:0-1")

    def test_cut_validates_link_names(self):
        net = topo_net(corporate())
        with pytest.raises(ValueError, match="unknown topology links"):
            net.cut("wan:0-99")

    def test_cut_drops_and_counts(self):
        topo = corporate()
        net = topo_net(topo)
        a, b = pick_pair(topo, "wan")
        pa, pb = Probe(a, net), Probe(b, net)
        net.cut(topo.link(a, b)[0])
        pa.send(b, "msg")
        net.run()
        assert pb.received == []
        assert net.messages_dropped == 1
        assert net.class_dropped == {"wan": 1}
        assert net.class_sent == {"wan": 1}  # counted as sent, then dropped

    def test_cuts_compose_and_heal_independently(self):
        topo = corporate()
        net = topo_net(topo)
        net.cut("wan:0-1")
        net.cut("wan:0-2", "wan:0-3")
        assert net.severed_links() == {"wan:0-1", "wan:0-2", "wan:0-3"}
        net.heal("wan:0-2")
        assert net.severed_links() == {"wan:0-1", "wan:0-3"}
        net.heal()
        assert net.severed_links() == set()

    def test_cut_severs_in_flight_messages(self):
        # Like partitions, cuts are re-checked at delivery time.
        topo = corporate()
        net = topo_net(topo)
        a, b = pick_pair(topo, "wan")
        pa, pb = Probe(a, net), Probe(b, net)
        pa.send(b, "msg")
        net.cut(topo.link(a, b)[0])
        net.run()
        assert pb.received == []
        assert net.messages_dropped == 1

    def test_heal_partition_clears_cuts_too(self):
        net = topo_net(corporate())
        net.cut("wan:0-1")
        net.heal_partition()
        assert net.severed_links() == set()

    def test_cut_composes_with_flat_partition(self):
        topo = corporate()
        net = topo_net(topo)
        a, b = pick_pair(topo, "rack")  # same rack: no cut can touch them
        pa, pb = Probe(a, net), Probe(b, net)
        net.cut(*topo.wan_links())
        net.partition({"island": [b]})
        pa.send(b, "msg")
        net.run()
        assert pb.received == []  # dropped by the label partition
        net.heal_partition()
        pa.send(b, "msg")
        net.run()
        assert pb.received != []


class TestOneSiteFlatIdentity:
    """The degenerate topology reproduces flat-fabric traces bit-identically."""

    LEAVES = 24

    def _drive(self, topology):
        salad = Salad(SaladConfig(dimensions=2, seed=7, topology=topology))
        salad.build(self.LEAVES)
        leaf_ids = salad.alive_identifiers()
        batches = {
            leaf_ids[i % len(leaf_ids)]: [
                SaladRecord(
                    fingerprint=synthetic_fingerprint(1000 + j, j % 20),
                    location=leaf_ids[i % len(leaf_ids)],
                )
                for j in range(i, 80, len(leaf_ids))
            ]
            for i in range(len(leaf_ids))
        }
        salad.insert_records(batches)
        return salad

    def test_trace_identity(self):
        flat = self._drive(None)
        topo = self._drive(one_site())
        assert topo.stored_records() == flat.stored_records()
        assert topo.message_totals() == flat.message_totals()
        assert topo.network.messages_sent == flat.network.messages_sent
        assert topo.network.messages_delivered == flat.network.messages_delivered
        assert topo.network.scheduler.now == flat.network.scheduler.now
