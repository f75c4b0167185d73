"""The three workloads, their set-up, timed loops and output checks.

Each workload runs through hse's public API only: the corpus file and the
checkpoint are read with hse.data, training runs hse.training.train and
evaluation runs hse.evaluation.evaluate_retrieval. Calls go through the
module attributes, so that the tracer's wrappers see them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hse.data as data
import hse.evaluation as evaluation
import hse.training as training
from hse.errors import HseError
from hse.losses import LossConfig
from hse.model import ModelDims

from corpora import FEATURE_DIM, CorpusShape, generate, write_corpus
from tracing import OpClock, Patches, hook_training_steps

HIDDEN = 32
TRAIN_EPOCHS = 2  # one fixed training run; its per-epoch log must repeat bitwise
SETUP_REPS = 5  # set-up is repeated and its median reported


@dataclass(frozen=True)
class Workload:
    name: str
    shape: CorpusShape
    # the tail percentile reported: the highest of p99, p90 and p75 that
    # leaves at least 10 operations beyond it in the slowest run seen at
    # the seed commit; fixed, so that it does not flip between runs
    tail: int
    batch_size: int = 0  # 0: evaluation workload
    tau: float = 0.0
    correspondence: str = "strong"

    @property
    def trains(self) -> bool:
        return self.batch_size > 0

    def config(self, seed: int, epochs: int = TRAIN_EPOCHS) -> training.TrainConfig:
        return training.TrainConfig(
            epochs=epochs,
            batch_size=self.batch_size,
            seed=seed,
            hidden_low=HIDDEN,
            hidden_high=HIDDEN,
            decay_every_epochs=100,
            loss=LossConfig(tau=self.tau, correspondence=self.correspondence),
        )


RAGGED = dict(clips=(2, 5), frames=(2, 8), words=(2, 8), num_events=8, weak=True)

WORKLOADS = {
    w.name: w
    for w in (
        # the acceptance overfit corpus shape: uniform lengths, full objective
        Workload(
            "overfit-recon",
            CorpusShape(num_pairs=32, num_events=4, clips=(3, 3), frames=(4, 4), words=(4, 4), weak=False),
            tail=90,
            batch_size=8,
            tau=5e-4,
        ),
        # ragged lengths, weak correspondence, no decoders
        Workload("weak-ragged", CorpusShape(num_pairs=64, **RAGGED), tail=75, batch_size=16, correspondence="weak"),
        # encoder forward pass only, over a corpus no training saw
        Workload("eval-heldout", CorpusShape(num_pairs=128, **RAGGED), tail=75),
    )
}


@dataclass
class Outcome:
    """What one timed phase measured."""

    op_seconds: list[float]  # wall seconds of each completed operation
    attempted: int
    failed: int
    # pairs per reference second (calibration.py) of each passing training
    # run or evaluation call
    rates: list[float]
    final_loss: float = 0.0
    op_reference: list[float] = field(default_factory=list)  # op_seconds at the reference speed


class Inputs:
    """Files the benchmark generates and hands to the program."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.corpus_path = workdir / "corpus.jsonl"
        self.checkpoint_path = workdir / "checkpoint.bin"
        write_corpus(generate(workload.shape, seed), self.corpus_path)
        # evaluation weights: drawn once, saved and loaded on every set-up
        self.weights = None
        if not workload.trains:
            self.weights = training.init_params(ModelDims(FEATURE_DIM, FEATURE_DIM, HIDDEN, HIDDEN), seed)

    def set_up(self) -> tuple[data.Corpus, object, float]:
        """One set-up: read the inputs through hse.data and warm up with one
        operation. Returns the corpus, the loaded weights and the seconds."""
        w = self.workload
        started = time.perf_counter()
        corpus = data.load_corpus(self.corpus_path)
        params = None
        if w.trains:
            warm = data.Corpus(pairs=corpus.pairs[: w.batch_size], correspondence=corpus.correspondence)
            training.train(warm, w.config(self.seed, epochs=1))
        else:
            data.save_checkpoint(self.weights, self.checkpoint_path)
            params = data.load_checkpoint(self.checkpoint_path)
            evaluation.evaluate_retrieval(params, corpus)
        return corpus, params, time.perf_counter() - started


def _log_bytes(log) -> bytes:
    return np.array([list(bd.components().values()) for bd in log], dtype=np.float64).tobytes()


def run_training(w: Workload, corpus: data.Corpus, seed: int, seconds: float, clock: OpClock, patches: Patches) -> Outcome:
    """Repeat the fixed training run until the time is up.

    Run r trains from training seed seed * 1000 + r, so that the timed steps
    see many different batches of a ragged corpus, not the same few again
    and again. The last run repeats the first.
    A run's rate counts its wall time less the gauge's kernel calls, scaled
    by the median kernel time from just before the run to its end.
    Check: every loss is finite (train raises otherwise) and the repeat's
    per-epoch loss log is bitwise identical to the first run's."""
    hook_training_steps(patches, clock)
    gauge = clock.gauge
    steps_per_run = TRAIN_EPOCHS * math.ceil(len(corpus.pairs) / w.batch_size)
    out = Outcome([], 0, 0, [])

    def one_run(run_seed: int):
        first_sample, spent = max(len(gauge.samples) - 1, 0), gauge.spent
        started = time.perf_counter()
        try:
            log = training.train(corpus, w.config(run_seed)).log
        except HseError as exc:
            clock.abort()
            print(f"training run with seed {run_seed} failed: {exc}")
            log = None
        seconds_taken = time.perf_counter() - started - (gauge.spent - spent)
        out.attempted += steps_per_run
        if log is None or not all(np.isfinite(bd.total) for bd in log):
            out.failed += steps_per_run
            return None
        reference = gauge.to_reference(seconds_taken, gauge.median_since(first_sample))
        out.rates.append(TRAIN_EPOCHS * len(corpus.pairs) / reference)
        return log

    started = time.perf_counter()
    first = one_run(seed * 1000)
    deadline = started + seconds - (time.perf_counter() - started)  # leaves time for the repeat
    r = 1
    while time.perf_counter() < deadline:
        one_run(seed * 1000 + r)
        r += 1
    repeat = one_run(seed * 1000)
    if first is not None and repeat is not None:
        out.final_loss = first[-1].total
        if _log_bytes(first) != _log_bytes(repeat):
            print("the repeated training run's loss log differs from the first run's")
            out.failed += steps_per_run
    out.op_seconds, out.op_reference = clock.times, clock.reference
    return out


def naive_ranks(queries: np.ndarray, gallery: np.ndarray) -> list[int]:
    """Rank of each query's true match by a double loop over cosine
    similarities: one plus the gallery items strictly more similar."""
    ranks = []
    for i, q in enumerate(queries):
        sims = [float(q @ g) / (math.sqrt(float(q @ q)) * math.sqrt(float(g @ g))) for g in gallery]
        ranks.append(1 + sum(s > sims[i] for s in sims))
    return ranks


def expected_ranks(params, corpus: data.Corpus) -> tuple[list[int], list[int]]:
    videos, paragraphs = evaluation.encode_corpus(params, corpus)
    return naive_ranks(paragraphs, videos), naive_ranks(videos, paragraphs)


def run_eval(params, corpus: data.Corpus, expected, seconds: float, clock: OpClock) -> Outcome:
    """Repeat evaluate_retrieval until the time is up (at least twice).

    Check: both directions' ranks equal the naive recomputation."""
    out = Outcome([], 0, 0, [])
    deadline = time.perf_counter() + seconds
    while out.attempted < 2 or time.perf_counter() < deadline:
        out.attempted += 1
        clock.begin("evaluation.evaluate_retrieval")
        try:
            p2v, v2p = evaluation.evaluate_retrieval(params, corpus)
        except HseError as exc:
            clock.abort()
            print(f"call {out.attempted} failed: {exc}")
            out.failed += 1
            continue
        clock.end()
        if (p2v.ranks, v2p.ranks) != expected:
            print(f"call {out.attempted}: ranks differ from the naive recomputation")
            out.failed += 1
        else:
            out.rates.append(len(corpus.pairs) / clock.reference[-1])
    out.op_seconds, out.op_reference = clock.times, clock.reference
    return out
