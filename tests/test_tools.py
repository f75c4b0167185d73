import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME_BITS = ROOT / "tools" / "same_bits.py"


def load_same_bits():
    spec = importlib.util.spec_from_file_location("same_bits", SAME_BITS)
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
    same_bits = load_same_bits()
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
