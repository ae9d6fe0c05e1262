"""The timed entry point of each layer, and the per-layer metrics.

Layers are named by module.  Each entry point is either a class method or a
module-level name as the calling module bound it (``synthetic_content`` as
``farsite.dfc_pipeline`` sees it, ``convergent_encrypt`` as
``farsite.client`` sees it), so a traced pass times exactly the calls the
workload makes into that layer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import repro.core.convergent as convergent_module
import repro.farsite.client as client_module
import repro.farsite.dfc_pipeline as pipeline_module
import repro.farsite.file_host as file_host_module
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey
from repro.farsite.dfc_pipeline import DfcPipeline
from repro.farsite.namespace import Namespace
from repro.farsite.relocation import RelocationPlanner
from repro.farsite.sis import SingleInstanceStore
from repro.salad.database import RecordDatabase
from repro.salad.salad import Salad
from repro.salad.storage import PagedWalRecordStore
from repro.sim.machine import SimMachine
from repro.sim.network import Network

from tracer import Patches, SpanRecorder


def _count_bytes(key: str, arg: int):
    def hook(recorder: SpanRecorder, args: tuple, result) -> None:
        recorder.add(key, len(args[arg]))

    return hook


def _count_result_bytes(recorder: SpanRecorder, args: tuple, result) -> None:
    recorder.add("workload.content.bytes", len(result))


def _count_placed(recorder: SpanRecorder, args: tuple, result) -> None:
    recorder.add("farsite.placement.files", len(result.assignment))


def _count_coalesced(recorder: SpanRecorder, args: tuple, result) -> None:
    recorder.add("farsite.sis.coalesced", bool(result))


def _count_plan(recorder: SpanRecorder, args: tuple, result) -> None:
    recorder.add("farsite.relocation.migrations", len(result.migrations))
    recorder.add("farsite.relocation.bytes_moved", result.bytes_moved())


def entry_points(recorder: SpanRecorder) -> Patches:
    """Wrappers for every layer's entry points (installed by ``with``)."""
    patches = Patches(recorder)
    add = patches.add
    add(Network, "send", "sim.network.send")
    add(Network, "run", "sim.events.run")
    add(SimMachine, "receive", "salad.leaf.receive")
    add(Salad, "build", "salad.salad.build")
    add(Salad, "insert_records", "salad.salad.insert_records")
    for store in (PagedWalRecordStore, RecordDatabase):
        for method in ("insert", "insert_many", "locations", "has_location", "flush"):
            add(store, method, f"salad.storage.{method}")
    add(pipeline_module, "synthetic_content", "workload.content.synthetic_content", _count_result_bytes)
    add(pipeline_module, "synthetic_fingerprint", "core.fingerprint.synthetic_fingerprint")
    add(file_host_module, "fingerprint_of", "core.fingerprint.fingerprint_of")
    add(pipeline_module, "place_replicas", "farsite.placement.place_replicas", _count_placed)
    for phase in ("load_hosts", "discover", "relocate", "report"):
        add(DfcPipeline, phase, f"farsite.dfc_pipeline.{phase}")
    add(SingleInstanceStore, "store", "farsite.sis.store", _count_coalesced)
    add(SingleInstanceStore, "read", "farsite.sis.read")
    add(SingleInstanceStore, "delete", "farsite.sis.delete")
    add(RelocationPlanner, "plan", "farsite.relocation.plan", _count_plan)
    add(client_module, "convergent_encrypt", "core.convergent.convergent_encrypt")
    add(client_module, "convergent_decrypt", "core.convergent.convergent_decrypt")
    add(convergent_module, "bulk_encrypt_ctr", "crypto.modes.bulk_encrypt_ctr", _count_bytes("crypto.modes.bytes", 1))
    add(convergent_module, "decrypt_ctr", "crypto.modes.decrypt_ctr", _count_bytes("crypto.modes.bytes", 1))
    add(RSAPublicKey, "encrypt", "crypto.rsa.encrypt")
    add(RSAKeyPair, "decrypt", "crypto.rsa.decrypt")
    add(Namespace, "create", "farsite.namespace.create")
    add(Namespace, "lookup", "farsite.namespace.lookup")
    return patches


#: Every layer, in blocking-chain order; its spans are the entry points
#: whose names start with the layer name.
LAYERS = (
    "sim.network",
    "sim.events",
    "salad.leaf",
    "salad.salad",
    "salad.storage",
    "workload.content",
    "core.fingerprint",
    "farsite.placement",
    "farsite.dfc_pipeline",
    "farsite.sis",
    "farsite.relocation",
    "core.convergent",
    "crypto.modes",
    "crypto.rsa",
    "farsite.namespace",
)

#: Per-layer metric -> (unit, which direction is better), in report order.
#: Every workload reports every metric; a layer a workload never calls
#: reports zero.  Bases of ratios and plain work counts are "lower": the
#: same work done with fewer calls is the better outcome.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sim.network.send_calls": ("count", "lower"),
    "sim.network.send_s": ("s", "lower"),
    "sim.network.messages_dropped": ("count", "lower"),
    "sim.events.run_self_s": ("s", "lower"),
    "sim.events.events_executed": ("count", "lower"),
    "salad.leaf.receive_self_s": ("s", "lower"),
    "salad.leaf.hops_per_record": ("ratio", "lower"),
    "salad.leaf.record_arrivals": ("count", "lower"),
    "salad.leaf.next_hop_hit_ratio": ("ratio", "higher"),
    "salad.leaf.next_hop_lookups": ("count", "lower"),
    "salad.leaf.records_per_envelope": ("ratio", "higher"),
    "salad.leaf.envelopes": ("count", "lower"),
    "salad.leaf.match_notifications_per_record": ("ratio", "lower"),
    "salad.leaf.records_inserted": ("count", "lower"),
    "salad.leaf.width_recalcs_per_join": ("ratio", "lower"),
    "salad.leaf.joins": ("count", "lower"),
    "salad.leaf.survivor_scans": ("count", "lower"),
    "salad.salad.grow_joins_per_s": ("1/s", "higher"),
    "salad.salad.grow.to256_joins_per_s": ("1/s", "higher"),
    "salad.salad.grow.to512_joins_per_s": ("1/s", "higher"),
    "salad.salad.grow.to1024_joins_per_s": ("1/s", "higher"),
    "salad.salad.insert_records_per_s": ("1/s", "higher"),
    "salad.salad.insert.wave0_records_per_s": ("1/s", "higher"),
    "salad.salad.insert.wave1_records_per_s": ("1/s", "higher"),
    "salad.salad.insert.wave2_records_per_s": ("1/s", "higher"),
    "salad.salad.insert.wave3_records_per_s": ("1/s", "higher"),
    "salad.storage.insert_calls": ("count", "lower"),
    "salad.storage.insert_s": ("s", "lower"),
    "salad.storage.lookup_calls": ("count", "lower"),
    "salad.storage.lookup_s": ("s", "lower"),
    "salad.storage.flush_calls": ("count", "lower"),
    "salad.storage.flush_s": ("s", "lower"),
    "salad.storage.page_hit_ratio": ("ratio", "higher"),
    "salad.storage.page_probes": ("count", "lower"),
    "salad.storage.page_misses": ("count", "lower"),
    "salad.storage.log_ops_per_record": ("ratio", "lower"),
    "salad.storage.stored_records": ("count", "lower"),
    "salad.storage.sync_writes": ("count", "lower"),
    "salad.storage.compactions": ("count", "lower"),
    "workload.content.s": ("s", "lower"),
    "workload.content.bytes": ("B", "lower"),
    "core.fingerprint.calls": ("count", "lower"),
    "core.fingerprint.s": ("s", "lower"),
    "farsite.placement.s": ("s", "lower"),
    "farsite.placement.files": ("count", "lower"),
    "farsite.dfc_pipeline.files_per_s": ("1/s", "higher"),
    "farsite.dfc_pipeline.load_hosts_s": ("s", "lower"),
    "farsite.dfc_pipeline.discover_s": ("s", "lower"),
    "farsite.dfc_pipeline.relocate_s": ("s", "lower"),
    "farsite.dfc_pipeline.report_s": ("s", "lower"),
    "farsite.sis.store_calls": ("count", "lower"),
    "farsite.sis.store_s": ("s", "lower"),
    "farsite.sis.read_s": ("s", "lower"),
    "farsite.sis.delete_s": ("s", "lower"),
    "farsite.sis.coalesce_ratio": ("ratio", "higher"),
    "farsite.relocation.plan_s": ("s", "lower"),
    "farsite.relocation.migrations": ("count", "lower"),
    "farsite.relocation.bytes_moved_per_reclaimed_byte": ("ratio", "lower"),
    "farsite.relocation.reclaimed_bytes": ("B", "higher"),
    "farsite.client.write_p50_ms": ("ms", "lower"),
    "farsite.client.write_p99_ms": ("ms", "lower"),
    "farsite.client.read_p50_ms": ("ms", "lower"),
    "farsite.client.read_p99_ms": ("ms", "lower"),
    "farsite.client.writes": ("count", "lower"),
    "farsite.client.reads": ("count", "lower"),
    "farsite.client.dfc_cycle_s": ("s", "lower"),
    "core.convergent.encrypt_s": ("s", "lower"),
    "core.convergent.decrypt_s": ("s", "lower"),
    "crypto.modes.ctr_s": ("s", "lower"),
    "crypto.modes.ctr_bytes": ("B", "lower"),
    "crypto.modes.keystream_hit_ratio": ("ratio", "higher"),
    "crypto.modes.keystream_probes": ("count", "lower"),
    "crypto.rsa.encrypt_calls": ("count", "lower"),
    "crypto.rsa.encrypt_s": ("s", "lower"),
    "crypto.rsa.decrypt_calls": ("count", "lower"),
    "crypto.rsa.decrypt_s": ("s", "lower"),
    "farsite.namespace.create_s": ("s", "lower"),
    "farsite.namespace.lookup_s": ("s", "lower"),
    **{f"{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "bench.unattributed_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "host.calibration_loops_per_s": ("1/s", "higher"),
}


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_self_shares(recorder: SpanRecorder, wall_s: float) -> Dict[str, float]:
    """Each layer's summed self time as a share of the pass's measured time."""
    shares = {}
    for layer in LAYERS:
        self_s = sum(
            recorder.self_s[name]
            for name in recorder.names
            if name.startswith(layer + ".")
        )
        shares[layer] = self_s / wall_s
    return shares


def per_layer_metrics(
    recorder: SpanRecorder,
    counters: Dict[str, float],
    named: Dict[str, float],
    wall_s: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced pass.

    *counters* are the program's own counters (``collect_metrics``, the
    keystream cache) for that pass; *named* holds the workload-level figures
    measured on the untraced passes.
    """

    def calls(*names: str) -> int:
        return sum(recorder.calls.get(name, 0) for name in names)

    def total(*names: str) -> float:
        return sum(recorder.total_s.get(name, 0.0) for name in names)

    def self_(*names: str) -> float:
        return sum(recorder.self_s.get(name, 0.0) for name in names)

    c = counters.get
    lookups = c("salad.routing.next_hop_hits", 0) + c("salad.routing.next_hop_misses", 0)
    probes = c("salad.storage.wal.page_hits", 0) + c("salad.storage.wal.page_misses", 0)
    keystream = c("crypto.keystream_hits", 0) + c("crypto.keystream_misses", 0)
    stores = calls("farsite.sis.store")
    reclaimed = c("reclaimed_bytes", 0)
    out = {
        "sim.network.send_calls": calls("sim.network.send"),
        "sim.network.send_s": total("sim.network.send"),
        "sim.network.messages_dropped": c("salad.network.messages_dropped", 0),
        "sim.events.run_self_s": self_("sim.events.run"),
        "sim.events.events_executed": c("sim.events.executed", 0),
        "salad.leaf.receive_self_s": self_("salad.leaf.receive"),
        "salad.leaf.hops_per_record": _ratio(c("salad.records.hops", 0), c("salad.records.arrivals", 0)),
        "salad.leaf.record_arrivals": c("salad.records.arrivals", 0),
        "salad.leaf.next_hop_hit_ratio": _ratio(c("salad.routing.next_hop_hits", 0), lookups),
        "salad.leaf.next_hop_lookups": lookups,
        "salad.leaf.records_per_envelope": _ratio(
            c("salad.routing.envelope_records", 0), c("salad.routing.envelopes", 0)
        ),
        "salad.leaf.envelopes": c("salad.routing.envelopes", 0),
        "salad.leaf.match_notifications_per_record": _ratio(
            c("salad.records.match_notifications", 0), c("records_inserted", 0)
        ),
        "salad.leaf.records_inserted": c("records_inserted", 0),
        "salad.leaf.width_recalcs_per_join": _ratio(c("salad.width.recalcs", 0), c("joins", 0)),
        "salad.leaf.joins": c("joins", 0),
        "salad.leaf.survivor_scans": c("salad.routing.survivor_scans", 0),
        "salad.storage.insert_calls": calls("salad.storage.insert", "salad.storage.insert_many"),
        "salad.storage.insert_s": self_("salad.storage.insert", "salad.storage.insert_many"),
        "salad.storage.lookup_calls": calls("salad.storage.locations", "salad.storage.has_location"),
        "salad.storage.lookup_s": self_("salad.storage.locations", "salad.storage.has_location"),
        "salad.storage.flush_calls": calls("salad.storage.flush"),
        "salad.storage.flush_s": self_("salad.storage.flush"),
        "salad.storage.page_hit_ratio": _ratio(c("salad.storage.wal.page_hits", 0), probes),
        "salad.storage.page_probes": probes,
        "salad.storage.page_misses": c("salad.storage.wal.page_misses", 0),
        "salad.storage.log_ops_per_record": _ratio(
            c("salad.storage.wal.log_ops", 0), c("salad.records.stored", 0)
        ),
        "salad.storage.stored_records": c("salad.records.stored", 0),
        "salad.storage.sync_writes": c("salad.storage.wal.sync_writes", 0),
        "salad.storage.compactions": c("salad.storage.wal.compactions", 0),
        "workload.content.s": total("workload.content.synthetic_content"),
        "workload.content.bytes": recorder.tally.get("workload.content.bytes", 0),
        "core.fingerprint.calls": calls(
            "core.fingerprint.synthetic_fingerprint", "core.fingerprint.fingerprint_of"
        ),
        "core.fingerprint.s": total(
            "core.fingerprint.synthetic_fingerprint", "core.fingerprint.fingerprint_of"
        ),
        "farsite.placement.s": total("farsite.placement.place_replicas"),
        "farsite.placement.files": recorder.tally.get("farsite.placement.files", 0),
        "farsite.dfc_pipeline.load_hosts_s": total("farsite.dfc_pipeline.load_hosts"),
        "farsite.dfc_pipeline.discover_s": total("farsite.dfc_pipeline.discover"),
        "farsite.dfc_pipeline.relocate_s": total("farsite.dfc_pipeline.relocate"),
        "farsite.dfc_pipeline.report_s": total("farsite.dfc_pipeline.report"),
        "farsite.sis.store_calls": stores,
        "farsite.sis.store_s": total("farsite.sis.store"),
        "farsite.sis.read_s": total("farsite.sis.read"),
        "farsite.sis.delete_s": total("farsite.sis.delete"),
        "farsite.sis.coalesce_ratio": _ratio(recorder.tally.get("farsite.sis.coalesced", 0), stores),
        "farsite.relocation.plan_s": total("farsite.relocation.plan"),
        "farsite.relocation.migrations": recorder.tally.get("farsite.relocation.migrations", 0),
        "farsite.relocation.bytes_moved_per_reclaimed_byte": _ratio(
            recorder.tally.get("farsite.relocation.bytes_moved", 0), reclaimed
        ),
        "farsite.relocation.reclaimed_bytes": reclaimed,
        "core.convergent.encrypt_s": total("core.convergent.convergent_encrypt"),
        "core.convergent.decrypt_s": total("core.convergent.convergent_decrypt"),
        "crypto.modes.ctr_s": total("crypto.modes.bulk_encrypt_ctr", "crypto.modes.decrypt_ctr"),
        "crypto.modes.ctr_bytes": recorder.tally.get("crypto.modes.bytes", 0),
        "crypto.modes.keystream_hit_ratio": _ratio(c("crypto.keystream_hits", 0), keystream),
        "crypto.modes.keystream_probes": keystream,
        "crypto.rsa.encrypt_calls": calls("crypto.rsa.encrypt"),
        "crypto.rsa.encrypt_s": total("crypto.rsa.encrypt"),
        "crypto.rsa.decrypt_calls": calls("crypto.rsa.decrypt"),
        "crypto.rsa.decrypt_s": total("crypto.rsa.decrypt"),
        "farsite.namespace.create_s": total("farsite.namespace.create"),
        "farsite.namespace.lookup_s": total("farsite.namespace.lookup"),
    }
    shares = layer_self_shares(recorder, wall_s)
    for layer, share in shares.items():
        out[f"{layer}.self_share"] = share
    out["bench.unattributed_share"] = 1.0 - sum(shares.values())
    for name in PER_LAYER:
        if name not in out:
            out[name] = named.get(name, 0.0)
    return out


def entry_point_table(recorder: SpanRecorder) -> List[Tuple[str, int, float, float]]:
    """(name, calls, total seconds, self seconds) for every entry point hit."""
    return [
        (name, recorder.calls[name], recorder.total_s[name], recorder.self_s[name])
        for name in recorder.names
    ]
