"""End-to-end DFC pipeline: SALAD discovery -> relocation -> SIS coalescing."""

import pytest

from repro.experiments.dfc_run import DfcConfig
from repro.farsite.dfc_pipeline import DfcPipeline
from repro.workload.generator import CorpusSpec, generate_corpus

# Small corpus with capped file sizes: the pipeline materializes bytes.
SPEC = CorpusSpec(
    machines=20,
    mean_files_per_machine=8,
    max_file_size=64 * 1024,
    system_contents=3,
)


@pytest.fixture(scope="module")
def executed_pipeline():
    corpus = generate_corpus(SPEC, seed=5)
    pipeline = DfcPipeline(corpus, DfcConfig(target_redundancy=2.5, seed=5))
    report = pipeline.execute()
    return corpus, pipeline, report


class TestEndToEnd:
    def test_physical_reclaim_at_least_prediction(self, executed_pipeline):
        """The SIS layer must realize every discovered coalescing
        opportunity (it may realize slightly more if discovery was split
        into components the relocation pass merged)."""
        _, _, report = executed_pipeline
        assert report.physically_reclaimed >= report.predicted_reclaimed
        assert report.predicted_reclaimed > 0

    def test_reclaim_bounded_by_ideal(self, executed_pipeline):
        corpus, _, report = executed_pipeline
        assert report.physically_reclaimed <= corpus.ideal_reclaimable_bytes()
        assert report.total_bytes == corpus.total_bytes

    def test_migrations_moved_real_bytes(self, executed_pipeline):
        _, pipeline, report = executed_pipeline
        assert report.migrations > 0
        assert report.bytes_moved > 0

    def test_duplicates_colocated_after_relocation(self, executed_pipeline):
        """Every relocated duplicate group must sit on one host, coalesced."""
        _, pipeline, _ = executed_pipeline
        by_fingerprint = {}
        for file_id, (fingerprint, hosts) in pipeline.replicas.items():
            by_fingerprint.setdefault(fingerprint, []).append((file_id, hosts[0]))
        for fingerprint, placements in by_fingerprint.items():
            hosts = {host for _, host in placements}
            if len(placements) > 1 and len(hosts) == 1:
                host = pipeline.hosts[hosts.pop()]
                first = placements[0][0]
                assert host.sis.link_count(first) == len(placements)

    def test_files_survive_relocation_intact(self, executed_pipeline):
        """Relocation must preserve every file's content exactly."""
        from repro.workload.content import synthetic_content

        corpus, pipeline, _ = executed_pipeline
        for machine in corpus.machines:
            for index, stat in enumerate(machine.files):
                file_id = f"m{machine.machine_index}-f{index}"
                fingerprint, hosts = pipeline.replicas[file_id]
                blob = pipeline.hosts[hosts[0]].sis.read(file_id)
                assert blob == synthetic_content(stat.content_id, stat.size)

    def test_consumed_fraction_reasonable(self, executed_pipeline):
        corpus, _, report = executed_pipeline
        ideal_fraction = corpus.summary().duplicate_byte_fraction
        assert report.reclaimed_fraction > 0.4 * ideal_fraction


class TestReplication:
    """The R >= 2 pipeline: placement, co-location, availability telemetry."""

    @pytest.fixture(scope="class")
    def replicated(self):
        corpus = generate_corpus(SPEC, seed=5)
        pipeline = DfcPipeline(
            corpus,
            DfcConfig(target_redundancy=2.5, seed=5, replication_factor=2),
        )
        report = pipeline.execute()
        return corpus, pipeline, report

    def test_every_file_on_r_distinct_hosts(self, replicated):
        _, pipeline, _ = replicated
        for file_id, (_, hosts) in pipeline.replicas.items():
            assert len(hosts) == 2
            assert len(set(hosts)) == 2

    def test_total_bytes_scale_with_replication(self, replicated):
        corpus, _, report = replicated
        assert report.total_bytes == 2 * corpus.total_bytes
        assert report.replication_factor == 2

    def test_replicas_actually_stored_on_their_hosts(self, replicated):
        _, pipeline, _ = replicated
        for file_id, (_, hosts) in pipeline.replicas.items():
            for host in hosts:
                assert pipeline.hosts[host].sis.read(file_id) is not None

    def test_availability_telemetry_in_report(self, replicated):
        _, pipeline, report = replicated
        assert 0.0 < report.min_availability <= report.mean_availability <= 1.0
        # Two independent replicas beat the worst single host.
        worst_host = min(pipeline.availability.values())
        assert report.min_availability > worst_host

    def test_duplicate_groups_colocated_on_canonical_pair(self, replicated):
        """After relocation each discovered group's files share one host
        set, so every host's SIS coalesces all of its copies."""
        _, pipeline, report = replicated
        assert report.migrations > 0
        by_fingerprint = {}
        for file_id, (fingerprint, hosts) in pipeline.replicas.items():
            by_fingerprint.setdefault(fingerprint, []).append(
                (file_id, frozenset(hosts))
            )
        colocated_groups = 0
        for placements in by_fingerprint.values():
            host_sets = {hosts for _, hosts in placements}
            if len(placements) > 1 and len(host_sets) == 1:
                colocated_groups += 1
                host_set = next(iter(host_sets))
                first = placements[0][0]
                for host in host_set:
                    assert pipeline.hosts[host].sis.link_count(first) == len(
                        placements
                    )
        assert colocated_groups > 0

    def test_availability_override_used(self):
        corpus = generate_corpus(SPEC, seed=5)
        override = {
            machine.machine_index: 0.42 for machine in corpus.machines
        }
        pipeline = DfcPipeline(
            corpus,
            DfcConfig(target_redundancy=2.5, seed=5, replication_factor=2),
            machine_availability=override,
        )
        pipeline.load_hosts()
        assert set(pipeline.availability.values()) == {0.42}
        pipeline.close_stores()

    def test_replication_factor_validated(self):
        with pytest.raises(ValueError):
            DfcConfig(replication_factor=0)

    def test_replication_beyond_hosts_rejected(self):
        corpus = generate_corpus(
            CorpusSpec(machines=3, mean_files_per_machine=2, max_file_size=4096),
            seed=1,
        )
        pipeline = DfcPipeline(corpus, DfcConfig(seed=1, replication_factor=5))
        with pytest.raises(ValueError):
            pipeline.load_hosts()

    def test_r1_path_unchanged_by_replication_support(self, executed_pipeline):
        """R=1 keeps the seed's owner-hosted single copy: every file's one
        replica starts on its owner machine's leaf (bit-identical loading,
        so every existing figure is untouched)."""
        corpus, pipeline, report = executed_pipeline
        assert report.replication_factor == 1
        assert report.total_bytes == corpus.total_bytes


class TestThreshold:
    def test_min_size_threshold_respected(self):
        corpus = generate_corpus(SPEC, seed=6)
        pipeline = DfcPipeline(corpus, DfcConfig(target_redundancy=2.5, seed=6))
        report = pipeline.execute(min_size=16 * 1024)
        # No match below the threshold may have been acted upon.
        for _, payload in pipeline.run.salad.collected_matches():
            assert payload.fingerprint.size >= 16 * 1024
        assert report.physically_reclaimed >= report.predicted_reclaimed


class TestLoadPath:
    """Loading pays once per distinct content, at any worker count."""

    def test_one_materialization_per_distinct_content(self, monkeypatch):
        import repro.farsite.dfc_pipeline as pipeline_module

        calls = []
        original = pipeline_module.synthetic_content

        def counting(content_id, size):
            calls.append((content_id, size))
            return original(content_id, size)

        monkeypatch.setattr(pipeline_module, "synthetic_content", counting)
        corpus = generate_corpus(SPEC, seed=5)
        pipeline = DfcPipeline(
            corpus, DfcConfig(seed=5, workers=1, replication_factor=3)
        )
        pipeline.execute()
        pipeline.close_stores()
        distinct = {
            (stat.content_id, stat.size)
            for machine in corpus.machines
            for stat in machine.files
        }
        assert len(distinct) < sum(len(m.files) for m in corpus.machines)
        assert sorted(calls) == sorted(distinct)

    @pytest.mark.parametrize("replication", [1, 3])
    def test_loaded_state_independent_of_workers(self, replication):
        corpus = generate_corpus(SPEC, seed=5)
        outcomes = []
        for workers in (1, 2):
            pipeline = DfcPipeline(
                corpus,
                DfcConfig(seed=5, workers=workers, replication_factor=replication),
            )
            report = pipeline.execute()
            outcomes.append(
                (
                    pipeline.replicas,
                    {h: host.sis.stats() for h, host in pipeline.hosts.items()},
                    report,
                )
            )
            pipeline.close_stores()
        assert outcomes[0] == outcomes[1]
