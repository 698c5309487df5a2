"""Run one coleaf benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Workloads: train-desk, train-llp, parse-heldout (see workloads.py). With
`--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
reports the per-layer metrics from a traced run instead, never both. The
environment goes to stdout as an `env` line, the metrics the ROADMAP and the
workload descriptions name as `name = value unit` lines, and the last line is
one JSON object with the keys correct, attempted, failed and metrics. A copy
of the result (and, for traced runs, every span) is written under
perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# One closed-loop client on one core: BLAS threads would only contend with it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train-desk", "train-llp", "parse-heldout")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": git_sha(),
        "seed": seed,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def p90_with_tail(samples):
    """The 90th percentile, or None when fewer than ten samples lie beyond it."""
    if len(samples) < 2:
        return None
    p90 = statistics.quantiles(samples, n=10)[8]
    return p90 if sum(1 for x in samples if x > p90) >= 10 else None


def timed_run(workload, args, workloads, hostspeed):
    """Set up SETUP_REPEATS times and measure a share of `--seconds` after each.

    Spreading the set-ups over the run lets their median see the machine at
    several times instead of one. Every set-up must end in the same final
    training loss, since all use the same seed.
    """
    sampler = hostspeed.Sampler()
    setup_times, setup_factors, phases, losses, extra = [], [], [], [], []
    with sampler.periodic():
        for repeat in range(SETUP_REPEATS):
            sampler.sample()
            start = time.perf_counter()
            state = workload.setup(args.seed)
            end = time.perf_counter()
            sampler.sample()
            factor, intrusion = sampler.over(start, end)
            setup_times.append(end - start - intrusion)
            setup_factors.append(factor)
            try:
                phases.append(
                    workloads.measure(workload, state, args.seconds / SETUP_REPEATS, sampler))
                if repeat == SETUP_REPEATS - 1:
                    extra = workload.finish(state)
            finally:
                workload.close(state)
            losses.append(state.final_train_loss)
    if len(set(losses)) > 1:
        extra.append(workloads.Op(0.0, 0, [f"set-ups with one seed ended in losses {losses}"]))
    phase = workloads.Phase.merge(phases)
    latencies = phase.latencies_ms
    reference_setups = [t / f for t, f in zip(setup_times, setup_factors)]
    metrics = {
        "setup_s": (statistics.median(reference_setups), "s"),
        "videos_per_s": (phase.videos_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    ops = phase.ops + extra
    failed = sum(1 for op in ops if op.problems)
    p50 = statistics.median(latencies) if latencies else None
    named = {
        "setup_s": metrics["setup_s"],
        "wall_setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": metrics["peak_rss_mb"],
        "host_factor_p50": (statistics.median(phase.host_factors + setup_factors), "x"),
        "failed_share": (failed / len(ops), "share"),
        "final_train_loss": (state.final_train_loss, "loss"),
    }
    if args.workload.startswith("train"):
        named["train_videos_per_s"] = metrics["videos_per_s"]
        named["wall_train_videos_per_s"] = (phase.wall_videos_per_s, "1/s")
        named["training_run_ms_p50"] = (p50, "ms")
        named["training_runs"] = (len(latencies), "count")
    else:
        named["parse_videos_per_s"] = metrics["videos_per_s"]
        named["wall_parse_videos_per_s"] = (phase.wall_videos_per_s, "1/s")
        named["shard_ms_p50"] = (p50, "ms")
        named["shard_ms_p90"] = (p90_with_tail(latencies), "ms")
        named["shards"] = (len(latencies), "count")
        named["heldout_type_at_avo"] = (state.heldout_type_at_avo, "F-score")
        named["random_type_at_avo"] = (state.random_type_at_avo, "F-score")
    detail = {
        "setup_s_samples": setup_times,
        "setup_host_factors": setup_factors,
        "op_ms_samples": latencies,
        "op_host_factors": [op.host_factor for op in phase.done],
    }
    return metrics, named, ops, detail


def traced_run(workload, args, workloads, tracing, hostspeed):
    setup_tracer = tracing.Tracer()
    with setup_tracer.installed():
        state = workload.setup(args.seed)
    tracer = tracing.Tracer()
    try:
        # Samples between operations only: a sample inside one would land in
        # whichever coleaf span was open.
        sampler = hostspeed.Sampler()
        untraced = workloads.measure(workload, state, args.seconds, sampler)
        before = workloads.counters()
        with tracer.installed():
            traced = workloads.measure(workload, state, args.seconds, sampler, tracer)
        calls = workloads.counter_delta(before, workloads.counters())
        predict_nodes = workload.predict_grad_nodes_per_video(state)
        extra = workload.finish(state)
    finally:
        workload.close(state)
    untraced_rate = untraced.videos_per_s
    overhead = 1.0 - traced.videos_per_s / untraced_rate if untraced_rate else 0.0
    layer = tracing.layer_metrics(
        setup_tracer,
        tracer,
        sum(op.videos for op in traced.ops),
        calls,
        traced.wall_s - traced.calibration_s,
        overhead,
        predict_nodes,
    )
    metrics = {name: (value, tracing.unit_of(name)) for name, value in layer.items()}
    named = {
        "untraced_videos_per_s": (untraced_rate, "1/s"),
        "traced_videos_per_s": (traced.videos_per_s, "1/s"),
        "traced_wall_s": (traced.wall_s, "s"),
        "absent_hooks": (len(tracer.absent | setup_tracer.absent), "count"),
    }
    spans = {
        "fields": ["name", "start", "end", "parent", "group"],
        "setup": setup_tracer.spans,
        "timed": tracer.spans,
        "absent": sorted(tracer.absent | setup_tracer.absent),
    }
    detail = {"spans": spans}
    return metrics, named, untraced.ops + traced.ops + extra, detail


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import coleaf
        import hostspeed
        import tracing
        import workloads
    except ImportError as err:
        print(f"cannot import coleaf from {SRC}: {err}", file=sys.stderr)
        return 2
    if Path(coleaf.__file__).resolve().parent != (SRC / "coleaf").resolve():
        print(f"coleaf was imported from {coleaf.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, named, ops, detail = traced_run(workload, args, workloads, tracing, hostspeed)
    else:
        metrics, named, ops, detail = timed_run(workload, args, workloads, hostspeed)

    failed = [op for op in ops if op.problems]
    for op in failed[:10]:
        print("failed: " + "; ".join(op.problems[:3]), file=sys.stderr)
    for name, (value, unit) in named.items():
        shown = "not reported" if value is None else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    workloads.OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, env=env, workload=args.workload, seconds=args.seconds,
                  named={k: v[0] for k, v in named.items()}, **detail)
    out_path = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
