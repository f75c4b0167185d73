"""Count the page faults and step time of perfbench runs of two source trees.

    python tools/faults.py PARENT_TREE CHANGE_TREE --workload weak-ragged --seeds 61001-61010 [--seconds 5]

For each seed, runs `perfbench/run.py --workload W --seed S --seconds N`
once from each tree, in a child process of its own, the two trees taking
turns at going first. Prints one result line per process: the tree, the
seed, its minor page faults (from resource.getrusage(RUSAGE_CHILDREN)
around the child) and the `op_ms_p50` of its last output line. Then prints
per tree the median and quartiles of both, the worst seed's faults over
the median, and in how many seeds the change read a lower `op_ms_p50`.
The environment is passed on as it is; nothing under perfbench/ changes.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RESULT = re.compile(r"^(parent|change) seed (\d+): (\d+) minor faults, op_ms_p50 ([0-9.]+)$")


def seed_list(text: str) -> list[int]:
    """Seeds from a comma-separated list of seeds and FIRST-LAST ranges."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[int, float]:
    """One perfbench run of tree: the child's minor faults and op_ms_p50."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: perfbench seed {seed} exited {done.returncode}: {done.stderr.strip()}")
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return faults, metrics["op_ms_p50"]["value"]


def result_line(side: str, seed: int, faults: int, op_ms: float) -> str:
    return f"{side} seed {seed}: {faults} minor faults, op_ms_p50 {op_ms:.3f}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3 (inclusive method; one value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(lines: list[str]) -> list[str]:
    """Summary lines for the result lines among lines (others are skipped):
    per tree, faults and op_ms_p50 as median [q1, q3] and the worst seed's
    faults over the median; then, over the seeds both trees ran, how many
    the change read faster."""
    by_side: dict[str, dict[int, tuple[int, float]]] = {side: {} for side in SIDES}
    for line in lines:
        match = RESULT.match(line.strip())
        if match:
            side, seed, faults, op_ms = match.groups()
            by_side[side][int(seed)] = (int(faults), float(op_ms))
    out = []
    for side, results in by_side.items():
        if not results:
            continue
        faults = [f for f, _ in results.values()]
        q1, median, q3 = quartiles(faults)
        m1, m_median, m3 = quartiles([ms for _, ms in results.values()])
        out.append(
            f"{side}: {len(results)} seeds, minor faults {median:.0f} [{q1:.0f}, {q3:.0f}], "
            f"worst {max(faults) / median:.2f}x the median; op_ms_p50 {m_median:.3f} [{m1:.3f}, {m3:.3f}]"
        )
    both = sorted(set(by_side["parent"]) & set(by_side["change"]))
    if both:
        wins = sum(by_side["change"][s][1] < by_side["parent"][s][1] for s in both)
        out.append(f"change faster in {wins} of {len(both)} pairs")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True, help="a perfbench workload name")
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 61001-61010 or 5,7,9")
    parser.add_argument("--seconds", type=float, default=5.0, help="perfbench --seconds of each run")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lines = []
    for i, seed in enumerate(args.seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            try:
                faults, op_ms = run_once(trees[side], args.workload, seed, args.seconds)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            lines.append(result_line(side, seed, faults, op_ms))
            print(lines[-1], flush=True)
    for line in summary(lines):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
