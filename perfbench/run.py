"""hse benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload overfit-recon --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; hse is imported from src/. With --trace 0
the last line of standard output is a JSON object with every end-to-end
metric; with --trace 1 it holds every per-layer metric, and the spans of
the traced phase are written to .perfbench/trace-<workload>-seed<seed>.json.
End-to-end times are reference times: wall times corrected for the speed of
the shared box, as measured by a fixed kernel (calibration.py).
Workloads, metrics and the predictions they test are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the keys of workloads.WORKLOADS; that module imports hse, which must wait for the timed import
WORKLOAD_NAMES = ("overfit-recon", "weak-ragged", "eval-heldout")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
IMPORT_SAMPLES = 5  # kernel calls that scale the import of hse
TRACED_SHARE = 2 / 3  # of --seconds; the rest runs untraced to measure the overhead


def tail(values: list[float], p: int) -> tuple[float, int]:
    """Nearest-rank percentile p, and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(math.ceil(p * len(ordered) / 100), 1)
    return ordered[rank - 1], len(ordered) - rank


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import calibration
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "reference_kernel_ms": calibration.REFERENCE_KERNEL_MS,
        "trace": args.trace,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class Setup:
    """Set-up time, wall and at the kernel's reference speed: the import of
    hse plus the median of the repeated set-ups."""

    def __init__(self, import_s: float, import_reference_s: float):
        self.wall_s = import_s
        self.reference_s = import_reference_s

    def add(self, wall_s: float, reference_s: float) -> None:
        self.wall_s += wall_s
        self.reference_s += reference_s


def end_to_end(out, setup: Setup, p: int) -> tuple[dict, str]:
    tail_s, beyond = tail(out.op_reference, p)
    metrics = {
        "op_ms_p50": metric(1000.0 * statistics.median(out.op_reference), "ms"),
        "op_ms_tail": metric(1000.0 * tail_s, "ms"),
        "pairs_per_s": metric(statistics.median(out.rates), "pairs/s"),
        "setup_s": metric(setup.reference_s, "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    summary = f"{len(out.op_seconds)} operations, tail is p{p} with {beyond} beyond it"
    if beyond < 10:
        summary += " (fewer than 10: the tail is unreliable)"
    wall_tail, _ = tail(out.op_seconds, p)
    summary += (
        f", final_loss {out.final_loss!r}; wall time: op_ms_p50 {1000.0 * statistics.median(out.op_seconds)!r}, "
        f"op_ms_tail {1000.0 * wall_tail!r}, setup_s {setup.wall_s!r}"
    )
    return metrics, summary


def per_layer(tracer, counter, traced, untraced, setup_reps: int, kernel_ms: float) -> dict:
    own, inclusive = tracer.self_ms()
    counts = counter.mean_counts()
    ms, count = "ms", "count"
    traced_p50 = 1000.0 * statistics.median(traced.op_reference)
    metrics = {
        "tensorkit.backward.self_ms_per_step": metric(own.get("tensorkit.backward", 0.0), ms),
        "tensorkit.tape_records_per_step": metric(counts.get("tensorkit.tape_records", 0.0), count),
    }
    for op in ("matmul", "add", "mul", "sigmoid", "tanh", "other"):
        metrics[f"tensorkit.tape_records.{op}"] = metric(counts.get(f"tensorkit.tape_records.{op}", 0.0), count)
    metrics.update(
        {
            "tensorkit.tensors_per_step": metric(counts.get("tensorkit.tensors", 0.0), count),
            "tensorkit.gc_collections_per_step": metric(counts.get("tensorkit.gc_collections", 0.0), count),
            "tensorkit.gc_pause_ms_per_step": metric(tracer.mean_counts().get("tensorkit.gc_pause_ms", 0.0), ms),
            "model.gru_steps_per_step": metric(counts.get("model.gru_steps", 0.0), count),
        }
    )
    for name in (
        "model.encode_low",
        "model.encode_high",
        "model.encode_hierarchical",
        "model.decode_hierarchical",
        "losses.total_loss",
        "losses.loss_match_high",
        "losses.loss_match_low",
        "losses.loss_match_low_weak",
        "losses.loss_cluster_high",
        "losses.loss_cluster_low",
        "losses.loss_reconstruct",
        "evaluation.evaluate_retrieval",
        "evaluation.encode_corpus",
        "evaluation.rank_matrix",
    ):
        metrics[f"{name}.self_ms"] = metric(own.get(name, 0.0), ms)
    metrics.update(
        {
            "evaluation.encode_corpus.ms": metric(inclusive.get("evaluation.encode_corpus", 0.0), ms),
            "training.optimizer_step.self_ms_per_step": metric(own.get("training.optimizer_step", 0.0), ms),
            "training.step_other_ms": metric(own.get("training.step", 0.0), ms),
            "training.final_loss": metric(traced.final_loss, "loss"),
            "data.load_corpus_ms": metric(tracer.setup_ms("data.load_corpus", setup_reps), ms),
            "data.save_checkpoint_ms": metric(tracer.setup_ms("data.save_checkpoint", setup_reps), ms),
            "data.load_checkpoint_ms": metric(tracer.setup_ms("data.load_checkpoint", setup_reps), ms),
            "trace.op_ms_p50": metric(traced_p50, ms),
            "trace.overhead_ms": metric(traced_p50 - 1000.0 * statistics.median(untraced.op_reference), ms),
            "calibration.kernel_ms": metric(kernel_ms, ms),
        }
    )
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    if not (ROOT / "src" / "hse" / "__init__.py").is_file():
        print(f"perfbench: no hse package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import hse  # noqa: F401  (timed: the import is part of set-up)

    import_s = time.perf_counter() - started
    from calibration import SpeedGauge
    from hse.errors import HseError

    env = environment(args)
    print("environment " + json.dumps(env, sort_keys=True))
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    gauge = SpeedGauge()
    # one kernel call is noisy, and the import is timed only once
    import_reference_s = gauge.to_reference(import_s, statistics.median(gauge.sample() for _ in range(IMPORT_SAMPLES)))
    try:
        metrics, summary, outcomes = measure(args, env, gauge, Setup(import_s, import_reference_s), workdir)
    except HseError as exc:  # set-up failed, or no timed operation completed
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"{args.workload} seed {args.seed}: {summary}; failed {failed} of {attempted}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def measure(args, env: dict, gauge, setup: Setup, workdir: Path) -> tuple[dict, str, list]:
    """Set up, run the timed phases and derive the metrics."""
    import workloads
    from hse.errors import HseError
    from tracing import OpClock, Patches, Tracer

    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.Inputs(workload, args.seed, workdir)
    tracer = Tracer() if args.trace else None
    walls, references = [], []
    with Patches() as patches:
        if tracer is not None:
            tracer.install(patches)  # set-up is traced for the data.* spans
        before = gauge.sample()
        for _ in range(workloads.SETUP_REPS):
            corpus, params, seconds = inputs.set_up()
            after = gauge.sample()
            walls.append(seconds)
            references.append(gauge.to_reference(seconds, (before + after) / 2))
            before = after
    setup.add(statistics.median(walls), statistics.median(references))
    expected = None if workload.trains else workloads.expected_ranks(params, corpus)

    def phase(seconds, tracer=None, counters=False):
        clock = OpClock(gauge, tracer)
        with Patches() as patches:
            if counters:
                tracer.install_counters(patches)
            elif tracer is not None:
                tracer.install(patches)
            if workload.trains:
                out = workloads.run_training(workload, corpus, args.seed, seconds, clock, patches)
            else:
                out = workloads.run_eval(params, corpus, expected, seconds, clock)
        if not out.rates:
            raise HseError(f"no operation completed; {out.failed} of {out.attempted} failed")
        return out

    if tracer is None:
        out = phase(args.seconds)
        metrics, summary = end_to_end(out, setup, workload.tail)
        return metrics, summary, [out]

    untraced = phase(args.seconds * (1 - TRACED_SHARE))
    counter = Tracer()
    counted = phase(0, counter, counters=True)  # the shortest phase: two runs or calls
    first_sample = len(gauge.samples)
    out = phase(args.seconds * TRACED_SHARE, tracer)
    kernel_ms = 1000.0 * gauge.median_since(first_sample)
    metrics = per_layer(tracer, counter, out, untraced, workloads.SETUP_REPS, kernel_ms)
    trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
    origin = tracer.start[0] if tracer.start else 0.0
    doc = {
        "environment": env,
        "span_fields": ["name", "start_s", "end_s", "parent", "step"],
        "spans": [[n, s - origin, e - origin, p, op] for n, s, e, p, op in tracer.spans()],
        "counts_per_step": counter.mean_counts(),
    }
    trace_path.write_text(json.dumps(doc))
    summary = (
        f"{len(out.op_seconds)} traced, {len(counted.op_seconds)} counted and "
        f"{len(untraced.op_seconds)} untraced operations; spans in {trace_path.relative_to(ROOT)}"
    )
    return metrics, summary, [untraced, counted, out]


if __name__ == "__main__":
    sys.exit(main())
