"""Property: loss, partitions, and topology cuts only *remove* messages.

The network draws one loss decision per send, unconditionally, before any
drop check (see Network.send), so runs that differ only in their
loss/partition/cut settings agree exactly on the surviving messages: each
survivor is delivered at the identical timestamp, and survivors arrive in
the identical relative order.  Equivalently, the lossy run's delivery log
is the no-drop baseline's log filtered to the survivors.

The property is checked on the flat fabric, the degenerate one-site
topology, and a multi-site topology (where wan cuts join the drop causes),
against scripted send schedules issued from quiescent window boundaries.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventScheduler
from repro.sim.machine import SimMachine
from repro.sim.network import Network, TopologyNetwork
from repro.sim.topology import Topology, one_site

MACHINES = 6

FABRICS = {
    "flat": lambda: None,
    "one-site": one_site,
    "two-site": lambda: Topology(
        sites=2, racks_per_site=2, rack_ticks=1, lan_ticks=2, wan_ticks=5
    ),
}


class Recorder(SimMachine):
    def __init__(self, identifier, network, log):
        super().__init__(identifier, network)
        self._log = log
        self.on("msg", self._record)

    def _record(self, message):
        self._log.append((self.network.scheduler.now, message.payload))


#: (sender index, recipient index, launch window) triples; each window's
#: sends are issued together from the quiescent boundary it names.
sends_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=MACHINES - 1),
        st.integers(min_value=0, max_value=MACHINES - 1),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=40,
)


def run_script(fabric, sends, loss, partition, cut_wan):
    """Deliver the scripted sends; return the (timestamp, seq) delivery log."""
    topology = FABRICS[fabric]()
    scheduler = EventScheduler()
    if topology is None:
        net = Network(scheduler, latency=1.0, loss_probability=loss, rng=random.Random(99))
    else:
        net = TopologyNetwork(
            scheduler, topology, loss_probability=loss, rng=random.Random(99)
        )
    log = []
    machines = [Recorder(100 + i, net, log) for i in range(MACHINES)]
    if partition:
        # Split the population in half by registration order.
        half = [m.identifier for m in machines[: MACHINES // 2]]
        net.partition({"west": half})
    if cut_wan and topology is not None and topology.sites > 1:
        net.cut(*topology.wan_links())

    by_window = {}
    for seq, (sender, recipient, window) in enumerate(sends):
        by_window.setdefault(window, []).append((sender, recipient, seq))
    quantum = topology.quantum if topology is not None else 1.0

    def launch(batch):
        def fire():
            for sender, recipient, seq in batch:
                machines[sender].send(machines[recipient].identifier, "msg", seq)

        return fire

    for window, batch in by_window.items():
        # Launch from a quiescent tick boundary: window w's sends go out at
        # t = 8w quanta, past any delivery from earlier windows (max delay
        # over all fabrics is 5 ticks).
        scheduler.schedule_at(window * 8 * quantum, launch(batch))
    net.run()
    return log


drop_settings = st.tuples(
    st.sampled_from([0.0, 0.25, 0.6, 0.9]),  # loss probability
    st.booleans(),  # flat label partition
    st.booleans(),  # sever all wan links (multi-site fabrics only)
)


class TestSurvivorPinning:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(sorted(FABRICS)),
        sends_strategy,
        drop_settings,
    )
    def test_lossy_log_is_filtered_baseline(self, fabric, sends, drops):
        loss, partition, cut_wan = drops
        baseline = run_script(fabric, sends, 0.0, False, False)
        lossy = run_script(fabric, sends, loss, partition, cut_wan)
        survivors = {seq for _, seq in lossy}
        assert lossy == [entry for entry in baseline if entry[1] in survivors]

    @settings(max_examples=15, deadline=None)
    @given(sends_strategy)
    def test_one_site_matches_flat_timestamps(self, sends):
        # The degenerate topology's integer-tick windows produce the same
        # delivery log as the flat fabric's float path, not just the same
        # survivors.
        assert run_script("one-site", sends, 0.0, False, False) == run_script(
            "flat", sends, 0.0, False, False
        )
