"""Time the GRU kernel's fixed cost per call and its cost per step.

    python tools/kernel_cost.py [TREE ...] [--workload overfit-recon]

Loads hse from each TREE's src/ (default: this checkout), each tree under a
package name of its own, so that several trees are timed in one process.
The call timed is one taped tensorkit.gru_runs pair in a kept Workspace,
forward and then its record's backward closure, at a training workload's
shapes: its low-level encoder pair (video clips and sentences), pooled,
with weights that take gradients and inputs that take none, as a training
step makes it. Each of ROUNDS rounds times CALLS such calls for every tree
and for T = 1, 2, 4 and 8 in turn. A least-squares line through a round's four
(T, us per call) points gives the per-call intercept, the cost a call pays
outside its step loops, and the slope, the cost of one more step. Prints
per tree the median [q1, q3] of both over the rounds and the workspace
takes per call, counted in untimed calls; with more than one tree, also in
how many rounds each tree's intercept was below the first tree's. One BLAS
thread; nothing inside src/ is marked or patched.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

from faults import quartiles
from same_bits import THREAD_VARS

STEPS = (1, 2, 4, 8)
ROUNDS, CALLS = 200, 10  # rounds of timed calls; calls timed together at each point of a round
# the low-level encoder pair of one training step (perfbench/workloads.py):
# rows per run (batch_size pairs times their mean clip count) and whether
# the frame counts are ragged; every workload has D = 16 and H = 32
WORKLOADS = {"overfit-recon": (24, False), "weak-ragged": (56, True)}
DIM, HID = 16, 32


def load_tensorkit(tree: Path, name: str):
    """hse.tensorkit of tree's src/, imported as the package name."""
    init = tree / "src" / "hse" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package.tensorkit


def lengths_at(rows: int, steps: int, ragged: bool, rng) -> list[int]:
    """Every row T steps long; ragged, spread evenly over 1..T in a fixed
    shuffled order, as pad_sequences leaves them (sample order)."""
    if not ragged:
        return [steps] * rows
    return rng.permutation([1 + i * steps // rows for i in range(rows)]).tolist()


def make_call(tk, rows: int, steps: int, ragged: bool, np):
    """A function making one taped pair call and its backward in a kept
    workspace, and the workspace."""
    rng = np.random.default_rng(steps)
    runs, grads = [], []
    for _ in range(2):
        weights = [
            tk.Tensor(rng.normal(0.0, 0.4, size=shape), requires_grad=True)
            for shape in ((DIM, 3 * HID), (HID, 2 * HID), (HID, HID), (3 * HID,))
        ]
        for t in weights:  # as in training, gradients add into kept buffers
            t.grad = np.zeros_like(t.values)
        x = tk.Tensor(rng.normal(size=(rows, steps, DIM)))
        runs.append((x, lengths_at(rows, steps, ragged, rng), weights, None))
        grads.append(rng.normal(size=(rows, HID)))
    workspace = tk.Workspace()

    def call():
        with tk.Tape(workspace) as tape:
            tk.gru_runs(runs, pool=True)
            (_, back), = tape._records
            back(grads)

    return call, workspace


def count_takes(call, workspace) -> int:
    """Workspace takes of one call (untimed)."""
    take, count = workspace.take, 0

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return take(*args, **kwargs)

    workspace.take = counting
    try:
        call()
    finally:
        del workspace.take
    return count


def fit(times: list[float]) -> tuple[float, float]:
    """The intercept and slope of the least-squares line through the points
    (STEPS[i], times[i])."""
    slope, intercept = statistics.linear_regression(STEPS, times)
    return intercept, slope


def summary(labels: list[str], rounds: list[list[list[float]]], takes: list[int]) -> list[str]:
    """One line per tree from its rounds (each the us per call at STEPS) and
    its takes per call; then, for each later tree, in how many rounds its
    intercept was below the first tree's."""
    fits = [[fit(times) for times in tree_rounds] for tree_rounds in rounds]
    out = []
    for label, tree_fits, n_takes in zip(labels, fits, takes):
        c1, c, c3 = quartiles([a for a, _ in tree_fits])
        s1, s, s3 = quartiles([b for _, b in tree_fits])
        out.append(
            f"{label}: intercept {c:.1f} us [{c1:.1f}, {c3:.1f}], slope {s:.1f} us/step [{s1:.1f}, {s3:.1f}], "
            f"{n_takes} takes per call, {len(tree_fits)} rounds"
        )
    for label, tree_fits in zip(labels[1:], fits[1:]):
        wins = sum(a < base for (a, _), (base, _) in zip(tree_fits, fits[0]))
        out.append(f"{label}: intercept below {labels[0]}'s in {wins} of {len(tree_fits)} rounds")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", type=Path, nargs="*", help="source trees (default: this checkout)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="overfit-recon")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees or [Path(__file__).resolve().parent.parent]]
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    import numpy as np

    rows, ragged = WORKLOADS[args.workload]
    calls, takes = [], []
    for i, tree in enumerate(trees):
        tk = load_tensorkit(tree, f"hse_kernel_cost_{i}")
        per_steps = [make_call(tk, rows, steps, ragged, np) for steps in STEPS]
        takes.append(count_takes(*per_steps[STEPS.index(4)]))
        for call, _ in per_steps:  # warm-up: each workspace grows to its call's need
            call()
            call()
        calls.append([call for call, _ in per_steps])
    rounds: list[list[list[float]]] = [[] for _ in trees]
    for _ in range(ROUNDS):
        for tree_calls, tree_rounds in zip(calls, rounds):
            times = []
            for call in tree_calls:
                started = time.perf_counter()
                for _ in range(CALLS):
                    call()
                times.append((time.perf_counter() - started) / CALLS * 1e6)
            tree_rounds.append(times)
    labels = [str(tree) for tree in trees]
    print(f"{args.workload}: a pooled encoder pair of {rows} rows per run, D = {DIM}, H = {HID}, T = {STEPS}")
    for line in summary(labels, rounds, takes):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
