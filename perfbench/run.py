"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload salad-flagship --seed 1 --seconds 20 --trace 0

The run sets up the workload's inputs from ``--seed``, repeats cold passes
until ``--seconds`` of measured time is spent, checks every pass's outputs,
and prints one JSON object as its last line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` one more pass runs with every layer's
entry points wrapped in spans, and the metrics are the per-layer ones.  The
spans of that pass are written to ``.perfbench_out/traces/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

#: The seed the benchmark was tuned on; 1009 is the one held out from tuning.
DEFAULT_SEED = 1

WORKLOAD_NAMES = ("salad-flagship", "dfc-pipeline", "farsite-rw")

#: Setups timed per run (``setup_s`` is their median): at least
#: ``MIN_SETUPS``, and more while they add up to under ``SETUP_BUDGET_S``.
MIN_SETUPS = 5
SETUP_BUDGET_S = 1.0
MAX_SETUPS = 50

#: Stop starting passes after this much wall time, whatever ``--seconds``.
WALL_LIMIT_S = 90.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "messages_per_record": "count",
    "reclaimed_fraction": "ratio",
    "peak_rss_mib": "MiB",
}


def calibration_probe(loops: int = 200_000) -> float:
    """Loops per second of a fixed pure-Python plus ``hashlib`` loop."""
    acc = 0
    start = time.perf_counter()
    for i in range(loops):
        acc ^= hashlib.sha1(i.to_bytes(8, "big")).digest()[0]
    return loops / (time.perf_counter() - start)


def sim_digest(sim: Dict[str, int]) -> str:
    return hashlib.sha256(json.dumps(sim, sort_keys=True).encode()).hexdigest()[:16]


def same_as_earlier_runs(out: Path, workload: str, seed: int, sim: Dict[str, int]) -> bool:
    """Compare this seed's simulated statistics with earlier runs' here.

    The first run of a (workload, seed) in a checkout records them; every
    later run must match exactly.
    """
    path = out / "digests" / f"{workload}-seed{seed}.json"
    if path.exists():
        return json.loads(path.read_text())["sim"] == sim
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"digest": sim_digest(sim), "sim": sim}, sort_keys=True))
    os.replace(tmp, path)
    return True


def timed_setup(workload, seed: int, setups: List[float]):
    gc.collect()
    start = time.perf_counter()
    inputs = workload.setup(seed)
    setups.append(time.perf_counter() - start)
    return inputs


def measure(args, root: Path, scratch: Path) -> dict:
    import layers
    from tracer import SpanRecorder
    from workloads import WORKLOADS, cold_start

    from repro.crypto.modes import keystream_cache

    workload = WORKLOADS[args.workload](scratch)
    probe = calibration_probe()
    began = time.perf_counter()
    setups: List[float] = []
    passes = []
    while True:
        # Spread the extra setups over the run, so that setup_s samples the
        # host's speed at more than one moment.
        burst = time.perf_counter()
        while len(setups) < MAX_SETUPS and time.perf_counter() - burst < SETUP_BUDGET_S / 4:
            workload.release(timed_setup(workload, args.seed, setups))
        inputs = timed_setup(workload, args.seed, setups)
        cold_start(traced=False)
        try:
            passes.append(workload.run(inputs))
        finally:
            workload.release(inputs)
        del inputs
        measured = sum(p.measured_s for p in passes)
        typical = statistics.median(p.measured_s for p in passes)
        if measured + typical > args.seconds or time.perf_counter() - began > WALL_LIMIT_S:
            break
    while len(setups) < MIN_SETUPS or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
    ):
        workload.release(timed_setup(workload, args.seed, setups))

    traced = recorder = None
    if args.trace:
        recorder = SpanRecorder()
        patches = layers.entry_points(recorder)
        inputs = workload.setup(args.seed)
        gc.collect()
        cold_start(traced=True)
        cache = keystream_cache()
        hits, misses = cache.hits, cache.misses
        try:
            with patches:
                traced = workload.run(inputs, pause=patches.paused)
        finally:
            workload.release(inputs)
            cold_start(traced=False)
        del inputs
        traced.counters["crypto.keystream_hits"] = cache.hits - hits
        traced.counters["crypto.keystream_misses"] = cache.misses - misses

    every = passes + ([traced] if traced else [])
    digests = {sim_digest(p.sim) for p in every}
    repeatable = (
        len(digests) == 1
        and len({p.messages_per_record for p in every}) == 1
        and len({p.reclaimed_fraction for p in every}) == 1
    )
    matches_earlier = same_as_earlier_runs(root / ".perfbench_out", args.workload, args.seed, passes[0].sim)
    checks_bite = all(p.corrupted_failed >= 1 for p in every)
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)

    measured_s = statistics.median(p.measured_s for p in passes)
    named = {
        key: statistics.median(p.named[key] for p in passes) for key in passes[0].named
    }
    if traced:
        named["trace.overhead_ratio"] = traced.measured_s / measured_s
        named["host.calibration_loops_per_s"] = probe
        metrics = layers.per_layer_metrics(recorder, traced.counters, named, traced.measured_s)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        trace_path = root / ".perfbench_out" / "traces" / f"{args.workload}-seed{args.seed}.spans"
        recorder.write(
            trace_path,
            {
                "workload": args.workload,
                "seed": args.seed,
                "measured_s": traced.measured_s,
                "untraced_measured_s": measured_s,
                "phases": traced.phases,
            },
        )
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": statistics.median(p.units / p.measured_s for p in passes),
            "messages_per_record": passes[0].messages_per_record,
            "reclaimed_fraction": passes[0].reclaimed_fraction,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    print(
        f"perfbench {args.workload} seed={args.seed} passes={len(passes)}"
        f"{' +1 traced' if traced else ''} setups={len(setups)}"
        f" host_probe={probe:,.0f} loops/s"
    )
    print("  phases (median pass): " + ", ".join(
        f"{name}={statistics.median(p.phases[name] for p in passes):.3f}s"
        for name in passes[0].phases
    ))
    print(f"  simulated: digest={sim_digest(passes[0].sim)} {passes[0].sim}")
    print(
        f"  simulated statistics repeat across passes: {repeatable};"
        f" match earlier runs of this seed: {matches_earlier}"
    )
    print(
        f"  checks: attempted={attempted} failed={failed}"
        f" ops_failed_frac={failed / attempted:.6f};"
        f" corrupted result counted as failed: {checks_bite}"
    )
    for key, value in named.items():
        print(f"  {key} = {value:.6g}")
    if traced:
        print("  entry point                                   calls      total_s       self_s")
        for name, calls, total_s, self_s in layers.entry_point_table(recorder):
            print(f"  {name:<44} {calls:>8} {total_s:>12.6f} {self_s:>12.6f}")
        print(f"  spans written to {trace_path.relative_to(root)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {
        "correct": failed == 0 and repeatable and matches_earlier and checks_bite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no program source at ./src/repro; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    scratch = root / ".perfbench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
