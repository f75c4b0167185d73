"""Seeded corpus generator for the benchmark workloads.

The generator is the benchmark's own, so that a change to the program
(including hse.data.synth_generate) cannot change the benchmark's inputs.
It follows the same latent-event model as the program's generator: every
pair draws a distinct sequence of events from a small vocabulary, each clip
is its event plus Gaussian noise on every frame, and each sentence is the
same event plus noise on every word.

Lengths are drawn from a fixed multiset that covers each range evenly and
is shuffled by the seed. The seed thus decides which pair is long or short
and how batches mix lengths, but every seed yields the same total number of
frames and words, so run-to-run spread measures the machine, not the input
size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

FEATURE_DIM = 16  # d_v = d_t, as in the acceptance corpora
NOISE_STD = 0.1


@dataclass(frozen=True)
class CorpusShape:
    num_pairs: int
    num_events: int
    clips: tuple[int, int]  # inclusive range of clips per video
    frames: tuple[int, int]  # inclusive range of frames per clip
    words: tuple[int, int]  # inclusive range of words per sentence
    weak: bool  # shuffle sentence order and add a duplicate sentence to a quarter of the pairs


def _even_lengths(rng: np.random.Generator, bounds: tuple[int, int], count: int) -> list[int]:
    lo, hi = bounds
    return [int(v) for v in rng.permutation(np.resize(np.arange(lo, hi + 1), count))]


def generate(shape: CorpusShape, seed: int) -> list[dict]:
    """Corpus records in the line format hse.data.load_corpus reads."""
    rng = np.random.default_rng(seed)
    events = rng.normal(0.0, 1.0, size=(shape.num_events, FEATURE_DIM))
    clip_counts = _even_lengths(rng, shape.clips, shape.num_pairs)
    duplicated = set(rng.permutation(shape.num_pairs)[: shape.num_pairs // 4]) if shape.weak else set()
    frame_counts = iter(_even_lengths(rng, shape.frames, sum(clip_counts)))
    word_counts = iter(_even_lengths(rng, shape.words, sum(clip_counts) + len(duplicated)))

    def rows(event: int, count: int) -> list:
        return (events[event] + rng.normal(0.0, NOISE_STD, size=(count, FEATURE_DIM))).tolist()

    seen: set[tuple[int, ...]] = set()
    records = []
    for k, n in enumerate(clip_counts):
        # distinct event sequences keep every retrieval target unique
        seq = tuple(int(e) for e in rng.integers(0, shape.num_events, size=n))
        while seq in seen:
            seq = tuple(int(e) for e in rng.integers(0, shape.num_events, size=n))
        seen.add(seq)
        sentence_events = list(seq)
        if shape.weak:
            sentence_events = [sentence_events[i] for i in rng.permutation(n)]
            if k in duplicated:
                sentence_events.append(sentence_events[int(rng.integers(0, n))])
        records.append(
            {
                "id": f"pair_{k:04d}",
                "clips": [rows(e, next(frame_counts)) for e in seq],
                "sentences": [rows(e, next(word_counts)) for e in sentence_events],
            }
        )
    return records


def write_corpus(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
