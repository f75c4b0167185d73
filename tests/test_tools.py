import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME_BITS = ROOT / "tools" / "same_bits.py"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_bits_finds_the_checkout_identical_to_itself():
    argv = [str(ROOT), str(ROOT), "--pairs", "4", "--epochs", "1", "--trials", "1"]
    done = subprocess.run([sys.executable, str(SAME_BITS), *argv], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "all identical"
    for artifact in ("train_strong/checkpoint.bin", "eval_flat/retrieval.json", "zeroshot/zeroshot.txt"):
        assert f"{artifact}: identical" in lines


def test_same_bits_names_the_first_differing_byte(tmp_path):
    same_bits = load_tool("same_bits")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, duration, report in ((parent, 1.5, b"rank 1\n"), (change, 2.5, b"rank 2\n")):
        (root / "eval").mkdir(parents=True)
        (root / "eval" / "manifest.json").write_text(json.dumps({"command": "eval", "duration_seconds": duration}))
        (root / "eval" / "retrieval.txt").write_bytes(report)
    (change / "extra.txt").write_text("new\n")
    lines, ok = same_bits.compare(parent, change, set())
    assert not ok
    assert lines == [
        "eval/manifest.json: identical",
        "eval/retrieval.txt: differs at byte 5",
        "extra.txt: only in the change tree",
    ]
    _, ok = same_bits.compare(parent, change, {"eval/retrieval.txt", "extra.txt"})
    assert ok


def test_faults_summary_gives_medians_quartiles_and_wins():
    faults = load_tool("faults")
    lines = [
        "parent seed 1: 30000 minor faults, op_ms_p50 6.000",
        "change seed 1: 8000 minor faults, op_ms_p50 5.500",
        "error: a line that is no result is skipped",
        "change seed 2: 8200 minor faults, op_ms_p50 5.250",
        "parent seed 2: 90000 minor faults, op_ms_p50 5.000",
        "parent seed 3: 60000 minor faults, op_ms_p50 6.500",
        "change seed 3: 7800 minor faults, op_ms_p50 5.750",
    ]
    assert faults.result_line("parent", 1, 30000, 6.0) == lines[0]
    assert faults.summary(lines) == [
        "parent: 3 seeds, minor faults 60000 [45000, 75000], worst 1.50x the median; op_ms_p50 6.000 [5.500, 6.250]",
        "change: 3 seeds, minor faults 8000 [7900, 8100], worst 1.02x the median; op_ms_p50 5.500 [5.375, 5.625]",
        "change faster in 2 of 3 pairs",
    ]


def test_faults_seed_list_takes_ranges_and_single_seeds():
    assert load_tool("faults").seed_list("61001-61003,7") == [61001, 61002, 61003, 7]


def test_kernel_cost_fits_each_round_and_summarises_the_fits():
    kernel_cost = load_tool("kernel_cost")
    assert kernel_cost.STEPS == (1, 2, 4, 8)
    intercept, slope = kernel_cost.fit([12.0, 14.0, 18.0, 26.0])
    assert (round(intercept, 9), round(slope, 9)) == (10.0, 2.0)
    # intercepts 10, 20, 30 and 5, 23, 3; every slope 2
    parent = [[12.0, 14.0, 18.0, 26.0], [22.0, 24.0, 28.0, 36.0], [32.0, 34.0, 38.0, 46.0]]
    change = [[7.0, 9.0, 13.0, 21.0], [25.0, 27.0, 31.0, 39.0], [5.0, 7.0, 11.0, 19.0]]
    assert kernel_cost.summary(["parent", "change"], [parent, change], [17, 9]) == [
        "parent: intercept 20.0 us [15.0, 25.0], slope 2.0 us/step [2.0, 2.0], 17 takes per call, 3 rounds",
        "change: intercept 5.0 us [4.0, 14.0], slope 2.0 us/step [2.0, 2.0], 9 takes per call, 3 rounds",
        "change: intercept below parent's in 2 of 3 rounds",
    ]
