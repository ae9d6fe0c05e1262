"""The three benchmark workloads, each a cold, single-process pass.

Each workload has a ``setup(seed)`` that builds every input from the seed
(the program receives only generated inputs) and a ``run(inputs)`` that
drives the program once and returns a :class:`PassResult`: the timed phases,
the exact simulated statistics for the digest, the output checks, and the
counters the traced run turns into per-layer metrics.

Every pass starts cold (see :func:`cold_start`): a fresh store directory,
an empty keystream cache, an empty span buffer, causal tracing off.
"""

from __future__ import annotations

import contextlib
import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.space import reclaimed_bytes_from_matches
from repro.core.fingerprint import synthetic_fingerprint
from repro.crypto import modes
from repro.experiments.dfc_run import DfcConfig
from repro.farsite.dfc_pipeline import DfcPipeline
from repro.farsite.node import FarsiteDeployment
from repro.obs import tracing
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import reset_spans
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig, set_detailed_metrics, set_trace_sample_rate
from repro.workload.content import synthetic_content
from repro.workload.generator import CorpusSpec, generate_corpus

KIB = 1024


@dataclass
class PassResult:
    """What one cold pass measured and checked."""

    #: Seconds per timed phase; their sum is the pass's measured time.
    phases: Dict[str, float]
    #: Units of work behind ``throughput_per_s`` (per measured second).
    units: int
    messages_per_record: float
    reclaimed_fraction: float
    #: Exact simulated statistics; equal seeds must give equal values.
    sim: Dict[str, int]
    attempted: int
    failed: int
    #: The same checks run on a deliberately corrupted result; must fail.
    corrupted_failed: int
    #: Program counters for the per-layer metrics.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific figures for the detail line.
    named: Dict[str, float] = field(default_factory=dict)

    @property
    def measured_s(self) -> float:
        return sum(self.phases.values())


def cold_start(traced: bool) -> None:
    """Reset the process-wide state one pass could hand to the next."""
    modes.keystream_cache().clear()
    reset_spans()
    set_trace_sample_rate(0.0)
    tracing.deactivate()
    # Per-record hop and envelope counters cost time on the routing path, so
    # only the traced pass turns them on.
    set_detailed_metrics(traced)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of *values* (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def lognormal_sizes(count: int, median: int, sigma: float, cap: int) -> List[int]:
    """*count* stratified lognormal quantiles, capped, in rank order.

    Size ``i`` is the quantile at ``frac((i + 1) * golden ratio)``: a fixed
    low-discrepancy order, so every prefix of the ranks already spans the
    whole distribution and the size mix does not depend on the seed.
    """
    unit = NormalDist()
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    sizes = []
    for i in range(count):
        u = ((i + 1) * phi) % 1.0
        u = min(max(u, 0.5 / count), 1.0 - 0.5 / count)
        size = median * math.exp(sigma * unit.inv_cdf(u))
        sizes.append(max(1, min(cap, int(size))))
    return sizes


def _salad_counters(salad: Salad) -> Dict[str, float]:
    """Program counters from ``collect_metrics`` plus the event loop's count."""
    registry = salad.collect_metrics(MetricsRegistry())
    out = {
        name: registry.counter_value(name)
        for name in (
            "salad.routing.next_hop_hits",
            "salad.routing.next_hop_misses",
            "salad.routing.survivor_scans",
            "salad.width.recalcs",
            "salad.records.arrivals",
            "salad.records.hops",
            "salad.records.stored",
            "salad.records.match_notifications",
            "salad.routing.envelopes",
            "salad.routing.envelope_records",
            "salad.storage.wal.compactions",
            "salad.storage.wal.sync_writes",
            "salad.storage.wal.log_ops",
            "salad.storage.wal.page_hits",
            "salad.storage.wal.page_misses",
            "salad.network.messages_sent",
            "salad.network.messages_delivered",
            "salad.network.messages_dropped",
        )
    }
    out["sim.events.executed"] = salad.network.scheduler.events_executed
    out["salad.leaves"] = len(salad.leaves)
    return out


class Workload:
    name = ""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def setup(self, seed: int):
        raise NotImplementedError

    def run(self, inputs, pause=contextlib.nullcontext) -> PassResult:
        """One pass; program calls made only to check outputs run under *pause*."""
        raise NotImplementedError

    def release(self, inputs) -> None:
        """Drop whatever *inputs* hold outside memory (none by default)."""


# ---------------------------------------------------------------------------
# salad-flagship: SALAD growth and record insertion at 1,024 leaves
# ---------------------------------------------------------------------------


@dataclass
class FlagshipInputs:
    seed: int
    db_dir: Path
    #: (size, content id) per pool content; records draw from the pool.
    pool: List[Tuple[int, int]]
    #: wave -> leaf index -> pool indices of that leaf's records.
    waves: List[List[List[int]]]
    fingerprints: list


class SaladFlagship(Workload):
    """Drive ``Salad`` directly: staged joins, then four insert waves."""

    name = "salad-flagship"
    STAGES = (256, 512, 1024)
    RECORDS_PER_LEAF = 10
    WAVES = 4

    def setup(self, seed: int) -> FlagshipInputs:
        rng = random.Random(f"salad-flagship:{seed}")
        leaves = self.STAGES[-1]
        records = leaves * self.RECORDS_PER_LEAF
        copies = 4
        sizes = lognormal_sizes(records // copies, 8 * KIB, 1.5, 256 * KIB)
        pool = [(size, rng.getrandbits(48)) for size in sizes]
        fingerprints = [synthetic_fingerprint(size, cid) for size, cid in pool]
        # Every content has exactly `copies` records, dealt to random slots.
        deck = [p for p in range(len(pool)) for _ in range(copies)]
        rng.shuffle(deck)
        base, extra = divmod(self.RECORDS_PER_LEAF, self.WAVES)
        waves = [
            [[deck.pop() for _ in range(base + (w < extra))] for _ in range(leaves)]
            for w in range(self.WAVES)
        ]
        db_dir = Path(tempfile.mkdtemp(prefix="salad-", dir=self.scratch))
        return FlagshipInputs(seed, db_dir, pool, waves, fingerprints)

    def release(self, inputs: FlagshipInputs) -> None:
        shutil.rmtree(inputs.db_dir, ignore_errors=True)

    def run(self, inputs: FlagshipInputs, pause=contextlib.nullcontext) -> PassResult:
        salad = Salad(
            SaladConfig(
                dimensions=2,
                seed=inputs.seed,
                db_backend="wal-paged",
                db_dir=str(inputs.db_dir),
                deferred_width_recalc=True,
            )
        )
        phases: Dict[str, float] = {}
        named: Dict[str, float] = {}
        try:
            previous = 0
            for stage in self.STAGES:
                start = time.perf_counter()
                salad.build(stage)
                elapsed = time.perf_counter() - start
                phases[f"grow_to{stage}"] = elapsed
                named[f"salad.salad.grow.to{stage}_joins_per_s"] = (stage - previous) / elapsed
                previous = stage
            sent_after_growth = salad.network.messages_sent
            identifiers = sorted(salad.alive_identifiers())
            inserted = 0
            wave_counts = []
            for w, wave in enumerate(inputs.waves):
                batch = {
                    identifier: [
                        SaladRecord(fingerprint=inputs.fingerprints[p], location=identifier)
                        for p in wave[index]
                    ]
                    for index, identifier in enumerate(identifiers)
                }
                want = sum(len(records) for records in batch.values())
                start = time.perf_counter()
                got = salad.insert_records(batch)
                elapsed = time.perf_counter() - start
                phases[f"insert_wave{w}"] = elapsed
                named[f"salad.salad.insert.wave{w}_records_per_s"] = got / elapsed
                wave_counts.append((want, got))
                inserted += got
            sent, delivered, dropped = salad.message_counters()
            matches = salad.collected_matches()
            record_bytes = sum(
                inputs.pool[p][0] for wave in inputs.waves for leaf in wave for p in leaf
            )
            alive = salad.alive_count()
            sim = {
                "leaves": alive,
                "messages_sent": sent,
                "messages_delivered": delivered,
                "messages_dropped": dropped,
                "match_notifications": len(matches),
                "stored_records": salad.total_stored_records(),
            }
            counters = _salad_counters(salad)
        finally:
            salad.shutdown()

        def check(waves, dropped_messages, leaves) -> Tuple[int, int]:
            attempted = self.STAGES[-1] + sum(want for want, _ in waves)
            failed = max(0, self.STAGES[-1] - leaves)
            failed += sum(max(0, want - got) for want, got in waves)
            failed += dropped_messages
            return attempted, min(failed, attempted)

        attempted, failed = check(wave_counts, dropped, alive)
        corrupted = wave_counts[:-1] + [(wave_counts[-1][0], wave_counts[-1][1] - 1)]
        corrupted_failed = check(corrupted, dropped, alive)[1]
        insert_s = sum(v for k, v in phases.items() if k.startswith("insert"))
        grow_s = sum(v for k, v in phases.items() if k.startswith("grow"))
        named["salad.salad.grow_joins_per_s"] = self.STAGES[-1] / grow_s
        named["salad.salad.insert_records_per_s"] = inserted / insert_s
        counters["records_inserted"] = inserted
        counters["joins"] = self.STAGES[-1]
        return PassResult(
            phases=phases,
            units=inserted,
            messages_per_record=(sent - sent_after_growth) / inserted,
            reclaimed_fraction=reclaimed_bytes_from_matches(matches) / record_bytes,
            sim=sim,
            attempted=attempted,
            failed=failed,
            corrupted_failed=corrupted_failed,
            counters=counters,
            named=named,
        )


# ---------------------------------------------------------------------------
# dfc-pipeline: the byte-level DFC pipeline over synthetic corpora
# ---------------------------------------------------------------------------


class DfcPipelineWorkload(Workload):
    """``DfcPipeline`` at R=3 over six seeded 64-machine corpora."""

    name = "dfc-pipeline"
    CORPORA = 6
    #: File sizes are capped so one heavy-tailed sample cannot dominate a
    #: corpus's bytes (and with them the run's time and reclaimed fraction).
    MAX_FILE_SIZE = 64 * KIB
    REPLICATION = 3

    def setup(self, seed: int):
        return [
            (
                sub_seed,
                generate_corpus(
                    CorpusSpec(
                        machines=64,
                        mean_files_per_machine=40,
                        max_file_size=self.MAX_FILE_SIZE,
                    ),
                    seed=sub_seed,
                    workers=1,
                ),
            )
            for sub_seed in (seed * self.CORPORA + k for k in range(self.CORPORA))
        ]

    @staticmethod
    def check_replicas(pipeline: DfcPipeline, corpus, corrupt: bool = False) -> Tuple[int, int]:
        """Every replica's bytes must equal the content it stands for.

        Returns ``(files checked, files failed)``.  With *corrupt*, one
        replica read of the first file is altered before the comparison.
        """
        by_content: Dict[Tuple[int, int], List[str]] = {}
        for machine in corpus.machines:
            for index, stat in enumerate(machine.files):
                file_id = f"m{machine.machine_index}-f{index}"
                by_content.setdefault((stat.content_id, stat.size), []).append(file_id)
        attempted = failed = 0
        for (content_id, size), file_ids in by_content.items():
            expected = synthetic_content(content_id, size)
            for file_id in file_ids:
                attempted += 1
                _, hosts = pipeline.replicas[file_id]
                blobs = [pipeline.hosts[h].sis.read(file_id) for h in hosts]
                if corrupt:
                    blobs[0] = bytes([blobs[0][0] ^ 1]) + blobs[0][1:] if blobs[0] else b"x"
                if len(hosts) != pipeline.config.replication_factor or any(
                    blob != expected for blob in blobs
                ):
                    failed += 1
            if corrupt:
                break
        return attempted, failed

    def run(self, inputs, pause=contextlib.nullcontext) -> PassResult:
        phases = {"load_hosts": 0.0, "discover": 0.0, "relocate": 0.0, "report": 0.0}
        sim = {
            key: 0
            for key in (
                "files",
                "messages_sent",
                "messages_delivered",
                "messages_dropped",
                "match_notifications",
                "stored_records",
                "migrations",
                "bytes_moved",
                "physical_bytes",
            )
        }
        counters: Dict[str, float] = {}
        attempted = failed = 0
        corrupted_failed = 0
        records = discover_messages = 0
        total_bytes = reclaimed = 0
        for sub_seed, corpus in inputs:
            pipeline = DfcPipeline(
                corpus,
                DfcConfig(
                    seed=sub_seed,
                    workers=1,
                    replication_factor=self.REPLICATION,
                    db_backend="memory",
                ),
            )
            try:
                start = time.perf_counter()
                pipeline.load_hosts()
                t_load = time.perf_counter()
                sent_before = pipeline.run.salad.network.messages_sent
                discovered = pipeline.discover()
                t_discover = time.perf_counter()
                plan = pipeline.relocate()
                t_relocate = time.perf_counter()
                report = pipeline.report(plan)
                t_report = time.perf_counter()
                phases["load_hosts"] += t_load - start
                phases["discover"] += t_discover - t_load
                phases["relocate"] += t_relocate - t_discover
                phases["report"] += t_report - t_relocate

                salad = pipeline.run.salad
                sent, delivered, dropped = salad.message_counters()
                records += discovered
                discover_messages += sent - sent_before
                total_bytes += report.total_bytes
                reclaimed += report.physically_reclaimed
                for key, value in (
                    ("files", len(pipeline.replicas)),
                    ("messages_sent", sent),
                    ("messages_delivered", delivered),
                    ("messages_dropped", dropped),
                    ("match_notifications", len(salad.collected_matches())),
                    ("stored_records", salad.total_stored_records()),
                    ("migrations", report.migrations + report.copies),
                    ("bytes_moved", report.bytes_moved),
                    ("physical_bytes", report.total_bytes - report.physically_reclaimed),
                ):
                    sim[key] += value
                for key, value in _salad_counters(salad).items():
                    counters[key] = counters.get(key, 0) + value
                counters["reclaimed_bytes"] = counters.get("reclaimed_bytes", 0) + report.physically_reclaimed

                # Accounting: SIS must reclaim at least what SALAD predicted.
                attempted += 1
                if report.physically_reclaimed < report.predicted_reclaimed:
                    failed += 1
                with pause():
                    if corrupted_failed == 0:
                        corrupted_failed = self.check_replicas(pipeline, corpus, corrupt=True)[1]
                    files_checked, files_failed = self.check_replicas(pipeline, corpus)
                attempted += files_checked
                failed += files_failed
            finally:
                pipeline.close_stores()
        counters["records_inserted"] = records
        counters["joins"] = counters.get("salad.leaves", 0)
        measured = sum(phases.values())
        files = sim["files"]
        return PassResult(
            phases=phases,
            units=files,
            messages_per_record=discover_messages / records,
            reclaimed_fraction=reclaimed / total_bytes,
            sim=sim,
            attempted=attempted,
            failed=failed,
            corrupted_failed=corrupted_failed,
            counters=counters,
            named={"farsite.dfc_pipeline.files_per_s": files / measured},
        )


# ---------------------------------------------------------------------------
# farsite-rw: one closed-loop client writing and re-reading encrypted files
# ---------------------------------------------------------------------------


@dataclass
class FarsiteInputs:
    deployment: FarsiteDeployment
    clients: list
    contents: List[bytes]
    #: ("w", user, path, content index) or ("r", user, path, None).
    ops: List[tuple]


class FarsiteReadWrite(Workload):
    """A 64-machine R=3 deployment, 16 users, ~3,000 seeded operations."""

    name = "farsite-rw"
    MACHINES = 64
    USERS = 16
    WRITES = 1500
    READS = 1500
    POOL = 400
    ZIPF_S = 0.8

    def setup(self, seed: int) -> FarsiteInputs:
        rng = random.Random(f"farsite-rw:{seed}")
        deployment = FarsiteDeployment(self.MACHINES, replication_factor=3, seed=seed)
        users = [deployment.create_user(f"user{u:02d}") for u in range(self.USERS)]
        clients = [deployment.client_for(user) for user in users]
        sizes = lognormal_sizes(self.POOL, 8 * KIB, 1.5, 256 * KIB)
        contents = [synthetic_content(rng.getrandbits(48), size) for size in sizes]
        weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(self.POOL)]
        # Zipf-weighted draws by quota: each content is written its expected
        # number of times (largest remainders round), in seeded order.
        total = sum(weights)
        quotas = [self.WRITES * w / total for w in weights]
        counts = [int(q) for q in quotas]
        by_remainder = sorted(range(self.POOL), key=lambda c: counts[c] - quotas[c])
        for c in by_remainder[: self.WRITES - sum(counts)]:
            counts[c] += 1
        draws = [c for c, count in enumerate(counts) for _ in range(count)]
        rng.shuffle(draws)

        # Every user writes once first, so any later read has a file to read.
        kinds = ["w"] * (self.WRITES - self.USERS) + ["r"] * self.READS
        rng.shuffle(kinds)
        kinds = ["w"] * self.USERS + kinds
        owned: List[List[str]] = [[] for _ in range(self.USERS)]
        ops = []
        for n, kind in enumerate(kinds):
            if kind == "w":
                user = n if n < self.USERS else rng.randrange(self.USERS)
                path = f"/user{user:02d}/f{n:05d}"
                content = draws.pop()
                owned[user].append(path)
                ops.append(("w", user, path, content))
            else:
                user = rng.randrange(self.USERS)
                ops.append(("r", user, rng.choice(owned[user]), None))
        return FarsiteInputs(deployment, clients, contents, ops)

    @staticmethod
    def check_reads(observed: List[Tuple[bytes, Optional[bytes]]]) -> int:
        """Reads whose bytes differ from what was written (or that raised)."""
        return sum(1 for expected, got in observed if got != expected)

    def run(self, inputs: FarsiteInputs, pause=contextlib.nullcontext) -> PassResult:
        written: Dict[str, Tuple[int, bytes]] = {}  # path -> (owner, bytes)
        latency = {"w": [], "r": []}
        observed: List[Tuple[bytes, Optional[bytes]]] = []
        errors = 0
        clock = time.perf_counter
        loop_start = clock()
        for kind, user, path, content in inputs.ops:
            client = inputs.clients[user]
            try:
                if kind == "w":
                    data = inputs.contents[content]
                    start = clock()
                    client.write_file(path, data)
                    latency["w"].append(clock() - start)
                    written[path] = (user, data)
                else:
                    start = clock()
                    got = client.read_file(path)
                    latency["r"].append(clock() - start)
                    observed.append((written[path][1], got))
            except Exception:  # counted as a failed operation, run goes on
                errors += 1
        loop_s = clock() - loop_start

        deployment = inputs.deployment
        sent_before = deployment.salad.network.messages_sent
        start = clock()
        report = deployment.run_dfc_cycle()
        cycle_s = clock() - start

        start = clock()
        for path, (owner, data) in written.items():
            try:
                got = inputs.clients[owner].read_file(path)
            except Exception:  # counted as a failed operation, run goes on
                got = None
            observed.append((data, got))
        readback_s = clock() - start

        attempted = len(inputs.ops) + len(written)
        failed = min(attempted, errors + self.check_reads(observed))
        expected, got = observed[0]
        corrupted_failed = self.check_reads(
            [(expected, bytes([got[0] ^ 1]) + got[1:] if got else b"x")]
        )

        salad = deployment.salad
        sent, delivered, dropped = salad.message_counters()
        counters = _salad_counters(salad)
        counters["records_inserted"] = report.records_published
        counters["joins"] = self.MACHINES
        counters["reclaimed_bytes"] = report.reclaimed_bytes
        ops = len(latency["w"]) + len(latency["r"])
        named = {
            "farsite.client.write_p50_ms": 1000 * percentile(latency["w"], 50),
            "farsite.client.write_p99_ms": 1000 * percentile(latency["w"], 99),
            "farsite.client.read_p50_ms": 1000 * percentile(latency["r"], 50),
            "farsite.client.read_p99_ms": 1000 * percentile(latency["r"], 99),
            "farsite.client.writes": len(latency["w"]),
            "farsite.client.reads": len(latency["r"]),
            "farsite.client.dfc_cycle_s": cycle_s,
        }
        return PassResult(
            phases={"ops": loop_s, "dfc_cycle": cycle_s, "readback": readback_s},
            units=ops + len(written),
            messages_per_record=(sent - sent_before) / report.records_published,
            reclaimed_fraction=report.reclaimed_bytes / report.logical_bytes,
            sim={
                "files": len(written),
                "messages_sent": sent,
                "messages_delivered": delivered,
                "messages_dropped": dropped,
                "match_notifications": int(counters["salad.records.match_notifications"]),
                "stored_records": int(counters["salad.records.stored"]),
                "records_published": report.records_published,
                "migrations": report.migrations,
                "bytes_moved": report.bytes_moved,
                "physical_bytes": report.physical_bytes,
            },
            attempted=attempted,
            failed=failed,
            corrupted_failed=corrupted_failed,
            counters=counters,
            named=named,
        )


WORKLOADS: Dict[str, Callable[[Path], Workload]] = {
    w.name: w for w in (SaladFlagship, DfcPipelineWorkload, FarsiteReadWrite)
}
