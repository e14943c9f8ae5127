"""The repository's benchmark: one seeded workload, checked and measured.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_poisson --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``serve_poisson``, ``http_edge``, ``personalize_churn`` (see
``perfbench/WORKLOADS.md``).  The set-up is built and warmed several
times and its median is ``setup_s``; the last set-up runs the timed
phase.  Every answer is checked against a companion engine, and any
mismatch makes the run fail.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
phase twice on fresh set-ups, untraced and then with timing wrappers on
each layer's public entry points, and prints the per-layer metrics plus
the tracing overhead; the spans are written to
``.perfbench_out/<workload>-<seed>.spans.jsonl.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records the environment.
"""

from __future__ import annotations

import os
import sys

# BLAS reads its thread count once, when numpy loads: pin it to the core
# count first, so every run of every commit uses the same threading.
CORES = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(CORES)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3


def environment() -> dict:
    """Hardware and software the numbers were measured on."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=30).stdout.strip()
    else:   # an exported checkout: identify the sources instead
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(path.read_bytes())
        sha = "src-sha256:" + digest.hexdigest()[:16]
    return {"cores": CORES, "cpu": platform.processor() or
            platform.machine(), "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": CORES,
            "numpy": np.__version__, "python": platform.python_version(),
            "git_sha": sha}


def percentile(values, q: float) -> float:
    """numpy's linear-interpolation percentile; 0.0 when nothing was
    measured (a layer the workload does not use)."""
    import numpy as np
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50)


def end_to_end(workload, setups, phase, colds, rss_mb) -> dict:
    tunes = phase.tunes or workload.setup_tunes
    colds = phase.colds or colds
    return {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "latency_p50_ms": (percentile(phase.latencies, 50) * 1e3, "ms"),
        "latency_p95_ms": (percentile(phase.latencies, 95) * 1e3, "ms"),
        "tokens_per_s": (phase.tokens / phase.wall_s, "tokens/s"),
        "requests_per_s": (phase.completed / phase.wall_s, "1/s"),
        "tune_p50_ms": (median(tunes) * 1e3, "ms"),
        "cold_query_p50_ms": (percentile(colds, 50) * 1e3, "ms"),
        "cold_query_p90_ms": (percentile(colds, 90) * 1e3, "ms"),
    }, {"latency": len(phase.latencies), "tune": len(tunes),
        "cold": len(colds)}


def simulated_cim(phase) -> dict:
    """The paper's analytic CiM numbers and crossbar counter deltas.

    Deterministic functions of the seeded inputs, so they must repeat
    bit for bit across runs and phases.
    """
    queries = max(1, len(phase.answers))
    programs = max(1, len(phase.tunes))
    responses = [response for _, response in phase.answers]
    return {
        "cim.mvm_ops_per_query": (phase.delta("cim_mvm_ops") / queries,
                                  "ops/query"),
        "cim.adc_conversions_per_query": (
            phase.delta("cim_adc_conversions") / queries, "conv/query"),
        "cim.write_pulses_per_program": (
            phase.delta("cim_write_pulses") / programs, "pulses/program"),
        "cim.sim_latency_ns_per_query": (
            sum(r.latency_ns for r in responses) / queries, "ns"),
        "cim.sim_energy_pj_per_query": (
            sum(r.energy_pj for r in responses) / queries, "pJ"),
    }


def per_layer(workload, untraced, phase, tracer) -> dict:
    """Per-layer metrics of the traced phase (see WORKLOADS.md)."""
    import numpy as np

    from spans import self_times, span_cost
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def ms(name):
        return median([s[2] - s[1] for s in by_name.get(name, [])]) * 1e3

    def ratio(num, den):
        return num / den if den else 0.0

    admit_start = {s[4]: s[1] for s in by_name.get("serve.admit", [])}
    retired_at = {rid: s[2] for s in by_name.get("llm.decode_round", [])
                  for rid in (s[6] or [])}
    gateway_waits, overheads = [], []
    for rid, (send, received) in phase.requests.items():   # http_edge
        if rid in admit_start and rid in retired_at:
            gateway_waits.append(admit_start[rid] - send)
            overheads.append((received - send)
                             - (retired_at[rid] - admit_start[rid]))
    verify_by_parent: dict[int, float] = {}
    for s in by_name.get("llm.spec.verify", []):
        verify_by_parent[s[3]] = verify_by_parent.get(s[3], 0.0) \
            + s[2] - s[1]
    draft = [spans[p][2] - spans[p][1] - v
             for p, v in verify_by_parent.items() if p is not None]
    gemm = by_name.get("llm.quant_gemm", [])
    blobs = [s[6] for s in by_name.get("serve.snapshot_encode", [])]
    gets = [s[2] - s[1] for s in by_name.get("serve.store_get", [])
            if s[6]]
    layers = {}
    for name, seconds in self_times(spans).items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds

    # Blocking steps: the part of each request's window covered by a
    # top-level span (admission, decode round, query, tune) of the
    # thread serving it.
    top = [s for s in spans if s[3] is None]
    starts = np.array([s[1] for s in top])
    ends = np.array([s[2] for s in top])
    blocking, unaccounted = [], []
    for begin, end in phase.windows:
        covered = np.clip(np.minimum(ends, end) - np.maximum(starts, begin),
                          0.0, None).sum() if len(top) else 0.0
        blocking.append(covered)
        unaccounted.append((end - begin) - covered)
    primary_untraced = median(workload.primary(untraced)) * 1e3
    primary_traced = median(workload.primary(phase)) * 1e3

    metrics = {
        "serve.queue_wait_ms": (median(phase.waits) * 1e3, "ms"),
        "serve.admit_ms": (ms("serve.admit"), "ms"),
        "serve.prefill_hit_ratio": (ratio(phase.delta("prefill_hits"),
                                          len(phase.answers)), "ratio"),
        "serve.prefill_lookups": (len(phase.answers), "count"),
        "serve.batch_occupancy": (ratio(phase.delta("occupancy_sum"),
                                        phase.delta("decode_rounds")),
                                  "seqs/round"),
        "serve.snapshot_capture_ms": (ms("serve.snapshot_capture"), "ms"),
        "serve.snapshot_encode_ms": (ms("serve.snapshot_encode"), "ms"),
        "serve.store_put_ms": (ms("serve.store_put"), "ms"),
        "serve.store_get_ms": (median(gets) * 1e3, "ms"),
        "serve.snapshot_decode_ms": (ms("serve.snapshot_decode"), "ms"),
        "serve.build_session_ms": (ms("serve.build_session"), "ms"),
        "serve.snapshot_bytes": (median(blobs), "B"),
        "retrieval.query_batch_ms": (ms("retrieval.query_batch"), "ms"),
        "retrieval.restore_ms": (ms("retrieval.restore"), "ms"),
        "nvm.program_ms": (ms("nvm.program"), "ms"),
        "compression.encode_query_ms": (ms("compression.encode_query"),
                                        "ms"),
        "compression.decode_ms": (ms("compression.decode"), "ms"),
        "compression.ae_fit_ms": (ms("compression.ae_fit"), "ms"),
        "llm.prefill_ms": (ms("llm.prefill"), "ms"),
        "llm.decode_round_ms": (ms("llm.decode_round"), "ms"),
        "llm.tokens_per_round": (ratio(phase.delta("decode_tokens"),
                                       phase.delta("decode_rounds")),
                                 "tokens/round"),
        "llm.spec.verify_ms": (ms("llm.spec.verify"), "ms"),
        "llm.spec.draft_ms": (median(draft) * 1e3, "ms"),
        "llm.spec.tokens_per_forward": (
            ratio(phase.delta("decode_tokens"),
                  phase.delta("decode_forwards")), "tokens/forward"),
        "llm.spec.acceptance_rate": (
            ratio(phase.delta("draft_accepted_tokens"),
                  phase.delta("draft_proposed_tokens")), "ratio"),
        "llm.spec.proposed_tokens": (phase.delta("draft_proposed_tokens"),
                                     "count"),
        "llm.quant_gemm_ms": (ms("llm.quant_gemm"), "ms"),
        "llm.quant_gemm_calls": (len(gemm), "count"),
        "llm.quant_gemm_bytes_per_call": (
            ratio(sum(s[6] for s in gemm), len(gemm)), "B"),
        "gateway.queue_wait_ms": (median(gateway_waits) * 1e3, "ms"),
        "gateway.overhead_ms": (median(overheads) * 1e3, "ms"),
        "gateway.rejected_share": (ratio(phase.gateway_rejected,
                                         phase.gateway_requests), "ratio"),
        "tuning.fit_ms": (ms("tuning.fit"), "ms"),
        "core.select_ms": (ms("core.select"), "ms"),
        "trace.primary_untraced_p50_ms": (primary_untraced, "ms"),
        "trace.primary_traced_p50_ms": (primary_traced, "ms"),
        "trace.overhead_ms": (primary_traced - primary_untraced, "ms"),
        "trace.blocking_p50_ms": (median(blocking) * 1e3, "ms"),
        "trace.unaccounted_p50_ms": (median(unaccounted) * 1e3, "ms"),
        "trace.wrapper_ms_per_op": (
            len(spans) * span_cost() / max(1, phase.completed) * 1e3,
            "ms"),
        "setup.warmup_first_batch_ms": (workload.warmup[0][0] * 1e3, "ms"),
        "setup.warmup_last_batch_ms": (workload.warmup[-1][0] * 1e3, "ms"),
        "setup.warmup_first_admit_ms": (workload.warmup[0][1] * 1e3, "ms"),
        "setup.warmup_last_admit_ms": (workload.warmup[-1][1] * 1e3, "ms"),
    }
    for layer in ("serve", "retrieval", "compression", "nvm", "llm",
                  "tuning", "core"):
        metrics[f"{layer}.self_ms_per_op"] = (
            ratio(layers.get(layer, 0.0), phase.completed) * 1e3, "ms")
    metrics.update(simulated_cim(phase))
    return metrics


def run(args, scratch: Path) -> tuple[dict, int, int, list[str]]:
    """Set up, measure and check one workload; returns
    (metrics, attempted, failed, notes)."""
    from spans import Tracer, install_layer_wrappers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.seconds,
                                        str(scratch))
    reps = 2 if args.trace else SETUP_REPS
    setups, system, phases = [], None, []
    tracer = Tracer()
    for rep in range(reps):
        if system is not None:
            workload.close(system)
            system = None
            gc.collect()
        start = time.perf_counter()
        system = workload.setup()
        setups.append(time.perf_counter() - start)
        if args.trace:   # rep 0 untraced, rep 1 traced, same inputs
            if rep == reps - 1:
                install_layer_wrappers(tracer, system["engine"])
                tracer.enabled = True
            try:
                phases.append(workload.run(system))
            finally:
                tracer.enabled = False
                tracer.uninstall()
    if not args.trace:
        phases.append(workload.run(system))
    phase = phases[-1]
    colds, failed = [], phase.failed
    if not args.trace:
        colds, mismatched = workload.probe(system)
        failed += mismatched
    # Peak memory of the system under test, before the companion engine.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = time.perf_counter()
    failed += workload.check(system, phase)
    workload.close(system)
    check_s = time.perf_counter() - checked
    attempted = len(phase.answers) + phase.failed + len(phase.tunes) \
        + len(colds)
    notes = [f"setups_s={[round(s, 3) for s in setups]} "
             f"phase_s={phase.wall_s:.2f} check_s={check_s:.2f}",
             "warmup(batch_ms,admit_ms)=" + str(
                 [(round(b * 1e3, 1), round(a * 1e3, 1))
                  for b, a in workload.warmup])]
    if not args.trace:
        metrics, counts = end_to_end(workload, setups, phase, colds,
                                     rss_mb)
        notes.append(f"samples={counts}")
        return metrics, attempted, failed, notes

    untraced = phases[0]
    answers = [(key, r.answer) for key, r in untraced.answers]
    if sorted(answers) != sorted((k, r.answer) for k, r in phase.answers):
        failed += 1
        notes.append("FAIL: traced answers differ from untraced answers")
    if simulated_cim(untraced) != simulated_cim(phase):
        failed += 1
        notes.append("FAIL: simulated CiM numbers did not repeat")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"{args.workload}-{args.seed}.spans.jsonl.gz")
    return per_layer(workload, untraced, phase, tracer), attempted, \
        failed, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        metrics, attempted, failed, notes = run(args, scratch)
    finally:
        shutil.rmtree(scratch.parent, ignore_errors=True)
    for note in notes:
        print(note)
    print(json.dumps({"env": environment()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
