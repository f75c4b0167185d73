"""Command-line entry point: synth | train | eval | partial-eval | zeroshot | gradcheck.

Every artifact-producing run writes a manifest recording the command, the
effective configuration (config file merged with flag overrides), input and
output paths, output checksums, and wall-clock duration. Files are written
atomically (temp file + rename). Log verbosity comes from HSE_LOG_LEVEL
(error | info | debug).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import MISSING, fields
from pathlib import Path

from .data import (
    CORRESPONDENCES,
    SynthSpec,
    load_corpus,
    load_labels,
    load_checkpoint,
    read_lines,
    save_checkpoint,
    save_corpus,
    save_labels,
    synth_generate,
    write_atomically,
)
from .errors import ConfigError, CorpusError, HseError, LabelsError
from .evaluation import DEFAULT_TOPK, ENCODING_MODES, evaluate_retrieval, zeroshot_classify
from .gradcheck import run_gradient_suite
from .losses import COMPONENTS, CORRESPONDENCE_MODES, LossConfig
from .tensorkit import FD_TOLERANCE
from .training import MODEL_KINDS, TrainConfig, train

log = logging.getLogger("hse.cli")


def _option_parsers(config) -> dict:
    """Each field of a config dataclass with a plain default, with the type
    of that default as its parser."""
    return {f.name: type(f.default) for f in fields(config) if f.default is not MISSING}


# keys accepted in a run-configuration file (key = value per line), each
# with its parser; every key is also a train flag (--key, "-" for "_"),
# and flags override file values
LOSS_KEYS = _option_parsers(LossConfig)
CONFIG_KEYS = {**_option_parsers(TrainConfig), **LOSS_KEYS}
CHOICES = {"model": MODEL_KINDS, "correspondence": CORRESPONDENCE_MODES}


def _setup_logging() -> None:
    level = os.environ.get("HSE_LOG_LEVEL", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigError(f"HSE_LOG_LEVEL must be one of {sorted(levels)}, got {level!r}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


def _parse_config_file(path: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, line in read_lines(path, ConfigError):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](raw)
        except ValueError:
            raise ConfigError(f"{path}: line {lineno}: bad value for {key!r}") from None
        if key in CHOICES and values[key] not in CHOICES[key]:
            raise ConfigError(
                f"{path}: line {lineno}: bad value for {key!r}: expected one of {CHOICES[key]}"
            )
    return values


def _merged_config(args) -> dict[str, object]:
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        values.update(_parse_config_file(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _train_config(values: dict[str, object]) -> TrainConfig:
    loss = LossConfig(**{k: v for k, v in values.items() if k in LOSS_KEYS})
    config = TrainConfig(loss=loss, **{k: v for k, v in values.items() if k not in LOSS_KEYS})
    config.validate()
    return config


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(
    path: Path,
    command: str,
    config: dict[str, object],
    seed: int | None,
    inputs: list[str],
    outputs: list[Path],
    started: float,
) -> None:
    manifest = {
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "checksums": {str(p): _sha256(p) for p in outputs},
        "duration_seconds": time.monotonic() - started,
    }
    write_atomically(path, [json.dumps(manifest, indent=2) + "\n"])


def _echo_config(out_dir: Path, values: dict[str, object]) -> Path:
    lines = [f"{k} = {values[k]}" for k in sorted(values)]
    path = out_dir / "config.txt"
    write_atomically(path, ["\n".join(lines) + "\n"])
    return path


def _parse_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _parse_count(text: str) -> int:
    if int(text) < 1:
        raise ValueError(f"count {text} < 1")
    return int(text)


def _parse_topk(text: str) -> tuple[int, ...]:
    return tuple(_parse_count(k) for k in text.split(","))


def _checked(parse, expected: str, keep_text: bool = True):
    """An argparse type: a flag text that parse cannot read is a usage
    error; a good one is kept as given, which is how the manifest records
    it, or as parsed if not keep_text."""

    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
        return text if keep_text else value

    return check


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        num_pairs=args.pairs,
        num_events=args.events,
        clips_per_pair=_parse_range(args.clips),
        frames_per_clip=_parse_range(args.frames),
        words_per_sentence=_parse_range(args.words),
        d_v=args.dv,
        d_t=args.dt,
        noise_std=args.noise_std,
        seed=args.seed,
        correspondence=args.correspondence,
    )
    started = time.monotonic()
    corpus, labels = synth_generate(spec)
    out = Path(args.out)
    save_corpus(corpus, out)
    labels_path = out.with_name(out.name + ".labels.json")
    save_labels(labels, labels_path)
    _write_manifest(
        out.with_name(out.name + ".manifest.json"),
        "synth",
        {k: getattr(args, k) for k in ("pairs", "events", "clips", "frames", "words", "dv", "dt", "noise_std", "correspondence")},
        args.seed,
        [],
        [out, labels_path],
        started,
    )
    print(f"wrote {len(corpus)} pairs to {out}")
    return 0


def _cmd_train(args) -> int:
    started = time.monotonic()
    values = _merged_config(args)
    config = _train_config(values)
    corpus = load_corpus(args.corpus)
    result = train(corpus, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "checkpoint.bin"
    save_checkpoint(result.params, ckpt)
    log_lines = [" ".join(("epoch",) + COMPONENTS)]
    for epoch, bd in enumerate(result.log):
        log_lines.append(" ".join([str(epoch)] + [repr(v) for v in bd.components().values()]))
    loss_log = out_dir / "loss_log.txt"
    write_atomically(loss_log, ["\n".join(log_lines) + "\n"])
    config_echo = _echo_config(out_dir, values)
    _write_manifest(
        out_dir / "manifest.json",
        "train",
        values,
        config.seed,
        [args.corpus] + ([args.config] if args.config else []),
        [ckpt, loss_log, config_echo],
        started,
    )
    print(f"trained {config.epochs} epochs; final total loss {result.log[-1].total!r}")
    return 0


def _load_eval_inputs(args):
    params = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.corpus)
    dims = params.dims
    if (corpus.d_v, corpus.d_t) != (dims.d_v, dims.d_t):
        raise CorpusError(
            f"{args.corpus}: features are d_v={corpus.d_v}, d_t={corpus.d_t} wide, but "
            f"{args.checkpoint} holds a model for d_v={dims.d_v}, d_t={dims.d_t}"
        )
    return params, corpus


def _write_report(
    args, name: str, lines: list[str], summary: dict, config: dict, inputs: list[str], started: float
) -> None:
    """Make the output directory, write <name>.txt (the report lines) and
    <name>.json (the summary), print the lines and write the manifest."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [out_dir / f"{name}.txt", out_dir / f"{name}.json"]
    write_atomically(outputs[0], ["\n".join(lines) + "\n"])
    write_atomically(outputs[1], [json.dumps(summary, indent=2) + "\n"])
    for line in lines:
        print(line)
    _write_manifest(out_dir / "manifest.json", args.command, config, None, inputs, outputs, started)


def _cmd_eval(args) -> int:
    """eval, or partial-eval when args.max_units is set."""
    started = time.monotonic()
    params, corpus = _load_eval_inputs(args)
    max_units = getattr(args, "max_units", None)
    reports = evaluate_retrieval(
        params, corpus, topk=_parse_topk(args.topk), mode=args.mode, max_units=max_units
    )
    config: dict[str, object] = {"topk": args.topk, "mode": args.mode}
    name = "retrieval"
    if max_units is not None:
        config["max_units"] = max_units
        name = f"retrieval_partial_{max_units}"
    lines = [line for report in reports for line in report.lines()]
    summary = {report.direction: report.summary() for report in reports}
    _write_report(args, name, lines, summary, config, [args.checkpoint, args.corpus], started)
    return 0


def _cmd_zeroshot(args) -> int:
    started = time.monotonic()
    params, corpus = _load_eval_inputs(args)
    labels_path = args.labels or args.corpus + ".labels.json"
    labels = load_labels(labels_path)
    d_t = params.dims.d_t
    if labels.label_phrases and labels.label_phrases[0].shape[1] != d_t:
        raise LabelsError(
            f"{labels_path}: label phrases are {labels.label_phrases[0].shape[1]} wide, but "
            f"{args.checkpoint} holds a model for d_t={d_t}"
        )
    labeled_clips = []
    for video, _ in corpus.pairs:
        clip_labels = labels.clip_labels.get(video.id)
        if clip_labels is None or len(clip_labels) != video.n:
            raise LabelsError(f"{labels_path}: field 'clip_labels' does not cover pair {video.id!r}")
        labeled_clips.extend(zip(video.clips, clip_labels))
    report = zeroshot_classify(params, labeled_clips, labels.label_phrases)
    inputs = [args.checkpoint, args.corpus, str(labels_path)]
    _write_report(args, "zeroshot", report.lines(), report.summary(), {}, inputs, started)
    return 0


def _cmd_gradcheck(args) -> int:
    started = time.monotonic()
    results = run_gradient_suite(seed=args.seed, trials_per_component=args.trials)
    lines = []
    for r in results:
        lines.append(
            f"{r.component}: max_rel_err={r.max_rel_err:.3e} trials={r.trials} "
            f"coords={r.n_checked} kinks_skipped={r.n_skipped_nondifferentiable}"
        )
        print(lines[-1])
    ok = all(r.passed for r in results)
    print(f"gradient suite {'PASSED' if ok else 'FAILED'} (tolerance {FD_TOLERANCE:g})")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "gradcheck.txt"
        write_atomically(report_path, ["\n".join(lines) + "\n"])
        _write_manifest(
            out_dir / "manifest.json",
            "gradcheck",
            {"trials": args.trials},
            args.seed,
            [],
            [report_path],
            started,
        )
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hse",
        description="Hierarchical sequence embedding: train and evaluate "
        "cross-modal video/paragraph models on line-delimited corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus file")
    p.add_argument("--pairs", type=int, default=32)
    p.add_argument("--events", type=int, default=4)
    counts = _checked(_parse_range, "a count or LO:HI range")
    for flag, default in (("--clips", "3"), ("--frames", "4"), ("--words", "4")):
        p.add_argument(flag, type=counts, default=default, help="count or LO:HI range")
    p.add_argument("--dv", type=int, default=16)
    p.add_argument("--dt", type=int, default=16)
    p.add_argument("--noise-std", dest="noise_std", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--correspondence", choices=CORRESPONDENCES, default="strong")
    p.add_argument("--out", required=True, help="output corpus path (.jsonl)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--out", required=True, help="output directory")
    for key, parse in CONFIG_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=parse, choices=CHOICES.get(key))
    p.set_defaults(func=_cmd_train)

    topk = _checked(_parse_topk, "comma-separated counts")
    count = _checked(_parse_count, "a count >= 1", keep_text=False)
    for name in ("eval", "partial-eval"):
        p = sub.add_parser(name, help=f"run {name} on a checkpoint and corpus")
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--corpus", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--topk", type=topk, default=",".join(map(str, DEFAULT_TOPK)), help="comma-separated k values")
        p.add_argument("--mode", choices=ENCODING_MODES, default="hierarchical")
        if name == "partial-eval":
            p.add_argument("--max-units", dest="max_units", type=count, required=True)
        p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("zeroshot", help="nearest-label transfer over clip embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--labels", help="labels sidecar (default: <corpus>.labels.json)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_zeroshot)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=count, default=4)
    p.add_argument("--out", help="optional output directory for the report")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def cli_dispatch(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    try:
        _setup_logging()
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on usage errors
            return int(exc.code or 0)
        return args.func(args)
    except (HseError, OSError) as exc:  # OSError: a missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return cli_dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
