"""Check that two source trees of hse write the same bytes.

    python tools/same_bits.py PARENT_TREE CHANGE_TREE [--expect-moved ARTIFACT ...]

Runs one fixed command set under `python -m hse` for each tree (its src/ on
PYTHONPATH, one BLAS thread), each tree in a temporary directory of its
own with the same relative paths: synth (strong and weak), train (strong
with --tau 0.01, weak with --tau 0, --model fse), eval, eval --mode flat,
partial-eval --max-units 1, zeroshot and gradcheck. Every file written,
and each command's standard output, is an artifact. The tool prints one
line per artifact, "identical" or the first byte offset at which the two
trees differ. It exits 1 if an artifact differs or exists in one tree
only, unless it is named with --expect-moved, and 2 if a command fails.
Manifests are compared without their duration_seconds, and offsets in
them count in that form. No hash is pinned, so the check holds on any
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def commands(pairs: int, epochs: int, trials: int) -> list[tuple[str, list[str]]]:
    """The command set, as (name, argv after `python -m hse`), in run order."""
    # as many events as pairs, so that every pair can draw a distinct sequence
    shape = ["--pairs", str(pairs), "--events", str(pairs), "--clips", "1:4", "--frames", "1:6", "--words", "1:6", "--dv", "6", "--dt", "5"]
    train = ["--epochs", str(epochs), "--batch-size", "4", "--hidden-low", "6", "--hidden-high", "5"]
    strong = ["--checkpoint", "train_strong/checkpoint.bin", "--corpus", "strong.jsonl"]
    return [
        ("synth_strong", ["synth", *shape, "--seed", "3", "--out", "strong.jsonl"]),
        ("synth_weak", ["synth", *shape, "--seed", "4", "--correspondence", "weak", "--out", "weak.jsonl"]),
        ("train_strong", ["train", "--corpus", "strong.jsonl", *train, "--tau", "0.01", "--out", "train_strong"]),
        (
            "train_weak",
            ["train", "--corpus", "weak.jsonl", *train, "--tau", "0", "--correspondence", "weak", "--out", "train_weak"],
        ),
        ("train_fse", ["train", "--corpus", "strong.jsonl", *train, "--model", "fse", "--out", "train_fse"]),
        ("eval", ["eval", *strong, "--out", "eval"]),
        ("eval_weak", ["eval", "--checkpoint", "train_weak/checkpoint.bin", "--corpus", "weak.jsonl", "--out", "eval_weak"]),
        (
            "eval_flat",
            ["eval", "--checkpoint", "train_fse/checkpoint.bin", "--corpus", "strong.jsonl", "--mode", "flat", "--out", "eval_flat"],
        ),
        ("partial_eval", ["partial-eval", *strong, "--max-units", "1", "--out", "partial_eval"]),
        ("zeroshot", ["zeroshot", *strong, "--out", "zeroshot"]),
        ("gradcheck", ["gradcheck", "--seed", "0", "--trials", str(trials), "--out", "gradcheck"]),
    ]


def run_tree(tree: Path, workdir: Path, steps: list[tuple[str, list[str]]]) -> None:
    """Run the command set with tree's hse in workdir, saving each command's
    standard output as <name>.stdout; raise on a failing command."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"), **{v: "1" for v in THREAD_VARS}}
    for name, argv in steps:
        done = subprocess.run(
            [sys.executable, "-m", "hse", *argv], cwd=workdir, env=env, capture_output=True, text=True
        )
        if done.returncode != 0:
            raise RuntimeError(f"{tree}: hse {' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
        (workdir / f"{name}.stdout").write_text(done.stdout)


def artifact_bytes(path: Path) -> bytes:
    """A file's bytes; a manifest's without its duration_seconds."""
    if not path.name.endswith("manifest.json"):
        return path.read_bytes()
    manifest = json.loads(path.read_text())
    manifest.pop("duration_seconds", None)
    return (json.dumps(manifest, indent=2) + "\n").encode()


def first_difference(a: bytes, b: bytes) -> int | None:
    """The first byte offset at which a and b differ (the shorter one's
    length if one is a prefix of the other), or None if they are equal."""
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def compare(parent: Path, change: Path, expect_moved: set[str]) -> tuple[list[str], bool]:
    """One line per artifact under the two directories, and whether every
    difference was expected."""
    names = sorted(
        {str(p.relative_to(root)) for root in (parent, change) for p in root.rglob("*") if p.is_file()}
    )
    lines, ok = [], True
    for name in names:
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            verdict = f"only in the {'parent' if a.is_file() else 'change'} tree"
            moved = True
        else:
            offset = first_difference(artifact_bytes(a), artifact_bytes(b))
            verdict = "identical" if offset is None else f"differs at byte {offset}"
            moved = offset is not None
        if moved and name in expect_moved:
            verdict += " (expected to move)"
        ok = ok and (not moved or name in expect_moved)
        lines.append(f"{name}: {verdict}")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument(
        "--expect-moved", action="append", default=[], metavar="ARTIFACT",
        help="an artifact (path relative to the run directory) allowed to differ; repeatable",
    )
    parser.add_argument("--pairs", type=int, default=24, help="pairs per synthetic corpus")
    parser.add_argument("--epochs", type=int, default=3, help="epochs per training run")
    parser.add_argument("--trials", type=int, default=2, help="gradcheck trials per component")
    args = parser.parse_args(argv)
    steps = commands(args.pairs, args.epochs, args.trials)
    with tempfile.TemporaryDirectory(prefix="same_bits-") as tmp:
        dirs = [Path(tmp) / "parent", Path(tmp) / "change"]
        for d in dirs:
            d.mkdir()
        with ThreadPoolExecutor(2) as pool:  # the two trees side by side
            futures = [pool.submit(run_tree, tree, d, steps) for tree, d in zip((args.parent, args.change), dirs)]
            try:
                for future in futures:
                    future.result()
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        lines, ok = compare(*dirs, set(args.expect_moved))
    for line in lines:
        print(line)
    if not ok:
        print("unexpected differences")
    elif all(line.endswith(": identical") for line in lines):
        print("all identical")
    else:
        print("only expected differences")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
