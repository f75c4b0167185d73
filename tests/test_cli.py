import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hse
from hse.cli import CONFIG_KEYS, _build_parser, cli_dispatch
from hse.data import load_checkpoint, save_checkpoint
from hse.errors import ContractError
from hse.gradcheck import run_gradient_suite


def run(*argv):
    return cli_dispatch(list(argv))


def run_python_m_hse(*argv) -> subprocess.CompletedProcess:
    """python -m hse in a fresh interpreter, which prints what numpy warns."""
    src = str(Path(hse.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "hse", *argv], env=env, capture_output=True, text=True)


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    code = run(
        "synth", "--pairs", "6", "--events", "3", "--clips", "1:2", "--frames", "1:2",
        "--words", "1:2", "--dv", "4", "--dt", "4", "--seed", "5", "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture()
def trained_dir(tmp_path, corpus_path):
    out = tmp_path / "run"
    code = run(
        "train", "--corpus", str(corpus_path), "--out", str(out), "--epochs", "2",
        "--seed", "3", "--hidden-low", "4", "--hidden-high", "4", "--batch-size", "4",
    )
    assert code == 0
    return out


class TestSynth:
    def test_deterministic_output_files(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        args = ["--pairs", "4", "--seed", "7", "--dv", "3", "--dt", "3",
                "--clips", "1:2", "--frames", "1:2", "--words", "1"]
        assert run("synth", *args, "--out", str(a)) == 0
        assert run("synth", *args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.jsonl.labels.json").exists()
        assert (tmp_path / "a.jsonl.manifest.json").exists()


class TestTrain:
    def test_outputs_and_manifest(self, trained_dir):
        assert (trained_dir / "checkpoint.bin").exists()
        assert (trained_dir / "loss_log.txt").exists()
        manifest = json.loads((trained_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["epochs"] == 2
        for path, digest in manifest["checksums"].items():
            assert len(digest) == 64
        assert manifest["duration_seconds"] >= 0.0

    def test_flags_override_config_file(self, tmp_path, corpus_path):
        config = tmp_path / "run.cfg"
        config.write_text("epochs = 5\nseed = 3\nhidden_low = 4\nhidden_high = 4\n")
        out = tmp_path / "run2"
        code = run(
            "train", "--corpus", str(corpus_path), "--config", str(config),
            "--out", str(out), "--epochs", "1", "--batch-size", "4",
        )
        assert code == 0
        echoed = (out / "config.txt").read_text()
        assert "epochs = 1" in echoed
        assert "seed = 3" in echoed
        log_lines = (out / "loss_log.txt").read_text().strip().splitlines()
        assert len(log_lines) == 1 + 1  # header plus one epoch

    def test_bad_config_file_exit_1(self, tmp_path, corpus_path):
        config = tmp_path / "bad.cfg"
        config.write_text("not a key value line\n")
        assert run("train", "--corpus", str(corpus_path), "--config", str(config),
                   "--out", str(tmp_path / "x")) == 1

    def test_removed_config_key_is_unknown(self, tmp_path, corpus_path, capsys):
        config = tmp_path / "old.cfg"
        for key, value in (("carry_low_state", "true"), ("sign_mode", "literal")):
            config.write_text(f"epochs = 1\n{key} = {value}\n")
            assert run("train", "--corpus", str(corpus_path), "--config", str(config),
                       "--out", str(tmp_path / "x")) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"error: {config}: line 2: unknown key {key!r}"]
            assert not (tmp_path / "x").exists()

    def test_removed_sign_mode_flag_is_a_usage_error(self, tmp_path, corpus_path, capsys):
        out = tmp_path / "x"
        assert run("train", "--corpus", str(corpus_path), "--out", str(out),
                   "--sign-mode", "literal") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and err[0].startswith("usage: ")
        assert err[1] == "hse: error: unrecognized arguments: --sign-mode literal"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["model", "correspondence"])
    def test_config_value_outside_the_choices_names_file_and_line(
        self, tmp_path, corpus_path, capsys, key
    ):
        config = tmp_path / "bad.cfg"
        config.write_text(f"epochs = 1\n{key} = bogus\n")
        assert run("train", "--corpus", str(corpus_path), "--config", str(config),
                   "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {config}: line 2: bad value for {key!r}")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("fault", ["duplicate-id", "wider-frame-row"])
    def test_corpus_level_fault_is_one_line_naming_the_file(
        self, tmp_path, corpus_path, capsys, fault
    ):
        records = [json.loads(line) for line in corpus_path.read_text().splitlines()]
        if fault == "duplicate-id":
            records[1]["id"] = records[0]["id"]
            message = f"duplicate pair id {records[0]['id']!r}"
        else:
            records[1]["clips"] = [[row + [0.0] for row in clip] for clip in records[1]["clips"]]
            message = f"pair {records[1]['id']!r}: inconsistent frame feature dimension"
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "x"
        assert run("train", "--corpus", str(corpus), "--out", str(out)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {corpus}: {message}")
        assert not out.exists()

    def test_zero_width_features_name_file_and_line(self, tmp_path, capsys):
        corpus = tmp_path / "zero-width.jsonl"
        corpus.write_text('{"id": "a", "clips": [[[]]], "sentences": [[[1.0]]]}\n' * 2)
        out = tmp_path / "x"
        assert run("train", "--corpus", str(corpus), "--out", str(out)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {corpus}: line 1: video 'a' has empty or inconsistent clips"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "rate, code, err",
        [
            ("50", 0, []),  # saturated gates: an overflowing exp takes sigmoid to its limit 0
            ("1e308", 1, ["error: epoch 0, batch 0: the update made a weight non-finite"]),
        ],
        ids=["saturating", "diverging"],
    )
    def test_large_learning_rate_prints_no_numpy_warnings(
        self, tmp_path, corpus_path, rate, code, err
    ):
        done = run_python_m_hse(
            "train", "--corpus", str(corpus_path), "--out", str(tmp_path / "run"), "--epochs", "2",
            "--seed", "3", "--hidden-low", "4", "--hidden-high", "4", "--batch-size", "4",
            "--learning-rate", rate,
        )
        assert (done.returncode, done.stderr.splitlines()) == (code, err)

    def test_failed_training_leaves_no_output_directory(self, tmp_path, capsys):
        corpus = tmp_path / "weak.jsonl"
        assert run("synth", "--pairs", "4", "--clips", "2:3", "--frames", "1", "--words", "1",
                   "--dv", "3", "--dt", "3", "--correspondence", "weak", "--out", str(corpus)) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert run("train", "--corpus", str(corpus), "--out", str(out), "--epochs", "1") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "strong-correspondence training needs a strong corpus" in err[0]
        assert not out.exists()

    def test_weak_synth_with_no_drawn_extra_sentence_still_refuses_strong_training(
        self, tmp_path, capsys
    ):
        # at this seed no pair draws an extra sentence: every pair has 3
        # clips and 3 shuffled sentences unless the generator adds one
        corpus = tmp_path / "w.jsonl"
        assert run("synth", "--pairs", "4", "--events", "4", "--correspondence", "weak",
                   "--seed", "4", "--out", str(corpus)) == 0
        capsys.readouterr()
        assert run("train", "--corpus", str(corpus), "--out", str(tmp_path / "run"), "--epochs", "2") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "strong-correspondence training needs a strong corpus" in err[0]

    def test_non_utf8_config_names_file_and_line(self, tmp_path, corpus_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"epochs = 1\n# caf\xff\n")
        assert run("train", "--corpus", str(corpus_path), "--config", str(config),
                   "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {config}: line 2: not UTF-8 text"]

    @pytest.mark.parametrize(
        "flag, value",
        [("--learning-rate", "nan"), ("--decay-factor", "inf"), ("--tau", "-inf"),
         ("--beta-prime", "nan")],
    )
    def test_non_finite_float_option_exit_1(self, tmp_path, corpus_path, capsys, flag, value):
        out = tmp_path / "x"
        assert run("train", "--corpus", str(corpus_path), "--out", str(out), f"{flag}={value}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")
        assert f"{flag[2:].replace('-', '_')} must be finite" in err[0]
        assert not (out / "checkpoint.bin").exists()

    def test_train_flags_are_the_config_keys(self):
        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        flags = {
            flag
            for action in sub.choices["train"]._actions
            for flag in action.option_strings
        }
        options = flags - {"-h", "--help", "--corpus", "--config", "--out"}
        keys = {"--" + key.replace("_", "-") for key in CONFIG_KEYS}
        assert keys == options
        assert options == {
            "--learning-rate", "--decay-factor", "--decay-every-epochs", "--epochs",
            "--batch-size", "--seed", "--hidden-low", "--hidden-high", "--model", "--alpha",
            "--beta", "--gamma", "--eta", "--beta-prime", "--tau", "--correspondence",
        }

    def test_train_reruns_are_bitwise_identical(self, tmp_path, corpus_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(
                "train", "--corpus", str(corpus_path), "--out", str(out), "--epochs", "2",
                "--seed", "9", "--hidden-low", "4", "--hidden-high", "4", "--batch-size", "4",
            ) == 0
            outs.append(out)
        assert (outs[0] / "checkpoint.bin").read_bytes() == (outs[1] / "checkpoint.bin").read_bytes()
        assert (outs[0] / "loss_log.txt").read_bytes() == (outs[1] / "loss_log.txt").read_bytes()


class TestEval:
    def test_eval_writes_reports(self, tmp_path, corpus_path, trained_dir):
        out = tmp_path / "eval"
        code = run(
            "eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--corpus", str(corpus_path), "--out", str(out), "--topk", "1,5",
        )
        assert code == 0
        text = (out / "retrieval.txt").read_text()
        assert "paragraph_to_video recall@1" in text
        summary = json.loads((out / "retrieval.json").read_text())
        assert set(summary) == {"paragraph_to_video", "video_to_paragraph"}

    def test_eval_is_reproducible(self, tmp_path, corpus_path, trained_dir):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert run(
                "eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                "--corpus", str(corpus_path), "--out", str(out),
            ) == 0
            outs.append(out)
        assert (outs[0] / "retrieval.txt").read_bytes() == (outs[1] / "retrieval.txt").read_bytes()

    def test_missing_checkpoint_exit_1(self, tmp_path, corpus_path):
        assert run(
            "eval", "--checkpoint", str(tmp_path / "nope.bin"),
            "--corpus", str(corpus_path), "--out", str(tmp_path / "out"),
        ) == 1

    @pytest.mark.parametrize("which", ["--checkpoint", "--corpus"])
    def test_directory_input_exit_1(self, tmp_path, corpus_path, trained_dir, capsys, which):
        args = {
            "--checkpoint": str(trained_dir / "checkpoint.bin"),
            "--corpus": str(corpus_path),
            "--out": str(tmp_path / "out"),
        }
        args[which] = str(tmp_path)
        argv = [part for flag, value in args.items() for part in (flag, value)]
        assert run("eval", *argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_partial_eval(self, tmp_path, corpus_path, trained_dir):
        out = tmp_path / "partial"
        code = run(
            "partial-eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--corpus", str(corpus_path), "--out", str(out), "--max-units", "1",
        )
        assert code == 0
        assert (out / "retrieval_partial_1.txt").exists()


    @pytest.mark.parametrize(
        "argv",
        [["eval", "--mode", "flat"], ["eval"], ["partial-eval", "--max-units", "1"], ["zeroshot"]],
        ids=["eval-flat", "eval", "partial-eval", "zeroshot"],
    )
    def test_non_finite_checkpoint_is_one_error_line(
        self, tmp_path, corpus_path, trained_dir, capsys, argv
    ):
        # NaN similarities rank every true match first: flat eval would
        # report recall 1.0 and zeroshot a top-5 of 1.0
        params = load_checkpoint(trained_dir / "checkpoint.bin")
        params.values[5:] = np.nan  # enc_v_low.w [4, 12] from w[0, 5] on
        checkpoint = tmp_path / "nan.bin"
        save_checkpoint(params, checkpoint)
        out = tmp_path / "out"
        assert run(*argv, "--checkpoint", str(checkpoint), "--corpus", str(corpus_path),
                   "--out", str(out)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        # the file holds w_z = w[:, :4].T first, whose first NaN is w[1, 0]
        assert err == [f"error: {checkpoint}: non-finite value nan in 'enc_v_low.w_z' at [0, 1]"]
        assert not out.exists()


class TestZeroShot:
    def test_zeroshot_report(self, tmp_path, corpus_path, trained_dir):
        out = tmp_path / "zs"
        code = run(
            "zeroshot", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--corpus", str(corpus_path), "--out", str(out),
        )
        assert code == 0
        summary = json.loads((out / "zeroshot.json").read_text())
        assert 0.0 <= summary["top1"] <= summary["top5"] <= 1.0

    def test_bad_labels_exit_1(self, tmp_path, corpus_path, trained_dir, capsys):
        labels = tmp_path / "labels.json"
        doc = json.loads((corpus_path.parent / (corpus_path.name + ".labels.json")).read_text())
        del doc["clip_labels"]
        labels.write_text(json.dumps(doc))
        code = run(
            "zeroshot", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--corpus", str(corpus_path), "--labels", str(labels), "--out", str(tmp_path / "zs"),
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {labels}: missing field 'clip_labels'"]

    def run_with_labels(self, tmp_path, corpus_path, trained_dir, capsys, edit):
        """Exit code and stderr lines of zeroshot on an edited copy of the
        corpus's labels sidecar; no output directory may be made."""
        labels = tmp_path / "labels.json"
        doc = json.loads((corpus_path.parent / (corpus_path.name + ".labels.json")).read_text())
        edit(doc)
        labels.write_text(json.dumps(doc))
        out = tmp_path / "zs"
        code = run(
            "zeroshot", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--corpus", str(corpus_path), "--labels", str(labels), "--out", str(out),
        )
        assert not out.exists()
        return code, capsys.readouterr().err.strip().splitlines(), labels

    def test_phrases_of_another_width_is_one_error_line(
        self, tmp_path, corpus_path, trained_dir, capsys
    ):
        def drop_last_column(doc):
            doc["label_phrases"] = [[row[:-1] for row in p] for p in doc["label_phrases"]]

        code, err, labels = self.run_with_labels(
            tmp_path, corpus_path, trained_dir, capsys, drop_last_column
        )
        assert code == 1
        checkpoint = trained_dir / "checkpoint.bin"
        assert err == [
            f"error: {labels}: label phrases are 3 wide, but {checkpoint} holds a model for d_t=4"
        ]

    def test_uncovered_pair_names_the_labels_file(self, tmp_path, corpus_path, trained_dir, capsys):
        code, err, labels = self.run_with_labels(
            tmp_path, corpus_path, trained_dir, capsys, lambda doc: doc["clip_labels"].pop("pair_0000")
        )
        assert code == 1
        assert err == [f"error: {labels}: field 'clip_labels' does not cover pair 'pair_0000'"]

    def test_deeply_nested_labels_is_one_error_line(self, tmp_path, corpus_path, trained_dir, capsys):
        labels = tmp_path / "labels.json"
        labels.write_text("[" * 200_000)
        out = tmp_path / "zs"
        assert run("zeroshot", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--corpus", str(corpus_path), "--labels", str(labels), "--out", str(out)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {labels}: not a JSON labels file: ")
        assert not out.exists()


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run("frobnicate") == 2

    def test_no_arguments_exits_2(self):
        assert run() == 2

    def test_gradcheck_smoke(self, tmp_path):
        out = tmp_path / "gc"
        assert run("gradcheck", "--seed", "1", "--trials", "1", "--out", str(out)) == 0
        assert (out / "gradcheck.txt").exists()
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "gradcheck"])
    def test_negative_seed_is_one_error_line(self, tmp_path, corpus_path, capsys, command):
        out = tmp_path / "out"
        argv = {
            "synth": ["--out", str(out)],
            "train": ["--corpus", str(corpus_path), "--out", str(out)],
            "gradcheck": ["--trials", "1", "--out", str(out)],
        }[command]
        assert run(command, "--seed", "-1", *argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "seed must be >= 0" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "partial-eval", "zeroshot"])
    def test_corpus_of_another_width_is_one_error_line(self, tmp_path, trained_dir, capsys, command):
        corpus = tmp_path / "wide.jsonl"
        assert run("synth", "--pairs", "4", "--clips", "1", "--frames", "1", "--words", "1",
                   "--dv", "5", "--dt", "4", "--out", str(corpus)) == 0
        checkpoint = trained_dir / "checkpoint.bin"
        out = tmp_path / "out"
        extra = ["--max-units", "1"] if command == "partial-eval" else []
        argv = ["--checkpoint", str(checkpoint), "--corpus", str(corpus), "--out", str(out), *extra]
        assert run(command, *argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(corpus) in err[0] and str(checkpoint) in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "zeroshot"])
    def test_deeply_nested_corpus_line_is_one_error_line(
        self, tmp_path, corpus_path, trained_dir, capsys, command
    ):
        corpus = tmp_path / "deep.jsonl"
        corpus.write_text(corpus_path.read_text() + "[" * 200_000 + "\n")  # line 7
        out = tmp_path / "out"
        assert run(command, "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--corpus", str(corpus), "--out", str(out)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {corpus}: line 7: malformed record: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_std_is_one_error_line(self, tmp_path, capsys, value):
        out = tmp_path / "corpus.jsonl"
        assert run("synth", "--noise-std", value, "--out", str(out)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: SynthSpec.noise_std must be finite and >= 0"]
        assert list(tmp_path.iterdir()) == []

    def test_python_m_hse_runs_the_cli(self):
        done = run_python_m_hse("--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: hse ")

    def test_gradient_suite_needs_a_trial(self):
        with pytest.raises(ContractError, match="trials_per_component must be >= 1"):
            run_gradient_suite(trials_per_component=0)

    @pytest.mark.parametrize(
        "argv, flag, message",
        [
            (["synth", "--clips", "a"], "--clips", "expected a count or LO:HI range, got 'a'"),
            (
                ["eval", "--checkpoint", "c.bin", "--corpus", "c.jsonl", "--topk", "1,x"],
                "--topk",
                "expected comma-separated counts, got '1,x'",
            ),
            (
                ["eval", "--checkpoint", "c.bin", "--corpus", "c.jsonl", "--topk", "0"],
                "--topk",
                "expected comma-separated counts, got '0'",
            ),
            (
                ["partial-eval", "--checkpoint", "c.bin", "--corpus", "c.jsonl", "--max-units", "1"]
                + ["--topk", "1,-2"],
                "--topk",
                "expected comma-separated counts, got '1,-2'",
            ),
            (
                ["partial-eval", "--checkpoint", "c.bin", "--corpus", "c.jsonl", "--max-units", "0"],
                "--max-units",
                "expected a count >= 1, got '0'",
            ),
            (["gradcheck", "--trials", "0"], "--trials", "expected a count >= 1, got '0'"),
        ],
        ids=[
            "synth-clips",
            "eval-topk",
            "eval-topk-zero",
            "partial-eval-topk-negative",
            "partial-eval-max-units-zero",
            "gradcheck-trials-zero",
        ],
    )
    def test_malformed_count_is_a_usage_error(self, tmp_path, capsys, argv, flag, message):
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == f"hse {argv[0]}: error: argument {flag}: {message}"
        assert not (tmp_path / "out").exists()

    def test_bad_log_level_exit_1(self, monkeypatch):
        monkeypatch.setenv("HSE_LOG_LEVEL", "chatty")
        assert run("gradcheck", "--trials", "1") == 1
