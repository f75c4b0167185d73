"""Bidirectional retrieval metrics and zero-shot label transfer.

Ranks are 1-based: the rank of query i is one plus the number of gallery
items whose similarity to the query strictly exceeds that of the true
match (ties resolve in the query's favor). Similarities are
tensorkit.cosine, the kernel the losses use. Median rank is the lower
median for even counts. Everything here is read-only over parameters and
corpus.

Retrieval, partial retrieval and zero-shot transfer encode tape-free, a
chunk of consecutive items (pairs, label phrases or clips) at a time.
_chunks plans the chunks in linear time from the items' lengths: a chunk
grows while every GRU run it makes fits in ENCODE_CHUNK_BYTES
(_run_bytes counts a run's padded input, the kernel's copy of it and its
input terms), and an item over that budget is a chunk alone. So every
tape-free encode has one memory bound, and a corpus that fits makes one
run per level and modality. A row's states do not depend on its batch,
so embeddings keep their bits at any budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensorkit as tk
from .data import Corpus, ParagraphSample, VideoSample
from .errors import ContractError
from .model import GruParams, HseModelParams, encode_batch, encode_flat_batch, pad_sequences

__all__ = [
    "RetrievalReport",
    "ZeroShotReport",
    "recall_at_k",
    "median_rank",
    "encode_corpus",
    "evaluate_retrieval",
    "zeroshot_classify",
]

DEFAULT_TOPK = (1, 5, 50)
ENCODE_CHUNK_BYTES = 8 << 20  # the largest GRU run of an encoding chunk, in bytes
ENCODING_MODES = ("hierarchical", "flat")


def _ranks(sims: np.ndarray, true_cols) -> np.ndarray:
    """1-based rank of each row's true column: one plus the entries of the
    row strictly greater than it, so ties resolve in the true item's favor."""
    true_sims = sims[np.arange(sims.shape[0]), true_cols]
    return 1 + np.sum(sims > true_sims[:, None], axis=1)


def recall_at_k(ranks: Sequence[int], k: int) -> float:
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise ContractError("recall_at_k requires a nonempty rank list")
    if k < 1:
        raise ContractError("recall_at_k requires k >= 1")
    return float(np.mean(ranks <= k))


def median_rank(ranks: Sequence[int]) -> int:
    ranks = sorted(int(r) for r in ranks)
    if not ranks:
        raise ContractError("median_rank requires a nonempty rank list")
    return ranks[(len(ranks) - 1) // 2]  # lower median for even counts


@dataclass
class RetrievalReport:
    """Per-query ranks plus derived metrics for one retrieval direction."""

    direction: str
    ranks: list[int]
    recall_at: dict[int, float]
    median_rank: int

    @classmethod
    def from_ranks(cls, direction: str, ranks, topk: Sequence[int]) -> "RetrievalReport":
        ranks = [int(r) for r in ranks]
        return cls(
            direction=direction,
            ranks=ranks,
            recall_at={int(k): recall_at_k(ranks, int(k)) for k in topk},
            median_rank=median_rank(ranks),
        )

    def lines(self) -> list[str]:
        out = [f"{self.direction} recall@{k} {v!r}" for k, v in sorted(self.recall_at.items())]
        out.append(f"{self.direction} median_rank {self.median_rank}")
        return out

    def summary(self) -> dict:
        return {
            "direction": self.direction,
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
            "median_rank": self.median_rank,
            "ranks": self.ranks,
        }


@dataclass
class ZeroShotReport:
    """Nearest-label classification of clip embeddings."""

    num_labels: int
    true_labels: list[int]
    predicted: list[int]
    top1: float
    top5: float

    def lines(self) -> list[str]:
        return [
            f"zeroshot labels {self.num_labels}",
            f"zeroshot top1 {self.top1!r}",
            f"zeroshot top5 {self.top5!r}",
        ]

    def summary(self) -> dict:
        return {
            "num_labels": self.num_labels,
            "top1": self.top1,
            "top5": self.top5,
            "predicted": self.predicted,
            "true_labels": self.true_labels,
        }


def _truncated(sample, max_units: int | None):
    if max_units is None:
        return sample
    if isinstance(sample, VideoSample):
        return VideoSample(sample.id, sample.clips[:max_units])
    return ParagraphSample(sample.id, sample.sentences[:max_units])


def _run_bytes(gru: GruParams, rows, longest):
    """The bytes a tape-free run of gru over rows sequences of at most
    longest steps holds that grow with its batch: the padded [rows, longest,
    D] input, the kernel's longest-first copy of it, and the [rows,
    min(longest, _WINDOW), 3H] input terms. Elementwise over arrays."""
    d, h3 = gru.w.values.shape
    return 8 * rows * (2 * longest * d + np.minimum(longest, tk._WINDOW) * h3)


def _chunks(runs: Sequence[tuple[GruParams, Sequence[int], Sequence[int]]]) -> list[slice]:
    """Consecutive items grouped into chunks. Each run (gru, rows, steps) is
    a GRU run that every chunk makes, to which item i adds rows[i]
    sequences of at most steps[i] steps. A chunk takes items while each of
    its runs, with running row counts and longest lengths, stays within
    ENCODE_CHUNK_BYTES; an item over that is a chunk alone.

    Linear time: a chunk's end is searched in a window of the items after
    its start, twice the previous chunk's size (all items for the first
    chunk), and the window doubles until the end is inside it."""
    runs = [(gru, np.asarray(rows), np.asarray(steps)) for gru, rows, steps in runs]
    count = len(runs[0][1])
    chunks, start, span = [], 0, count
    while start < count:
        window = slice(start, min(start + span, count))
        over = np.zeros(window.stop - start, dtype=bool)
        for gru, rows, steps in runs:
            size = _run_bytes(gru, np.cumsum(rows[window]), np.maximum.accumulate(steps[window]))
            over |= size > ENCODE_CHUNK_BYTES
        ends = np.flatnonzero(over[1:])  # the first item is in the chunk, fitting or not
        if ends.size == 0 and window.stop < count:
            span *= 2
            continue
        end = start + 1 + int(ends[0]) if ends.size else count
        chunks.append(slice(start, end))
        start, span = end, 2 * (end - start)
    return chunks


def _encode_sequences(gru: GruParams, sequences: Sequence[np.ndarray]) -> np.ndarray:
    """The [B, H] embeddings of [T_b, D] feature sequences: the channel-wise
    maxima of gru's states from a zero state, one run a chunk (_chunks)."""
    sequences = list(sequences)
    # a sequence that is not [T, D] gets a length here, for pad_sequences to reject
    steps = [len(s) if np.ndim(s) else 0 for s in sequences]
    chunks = _chunks([(gru, np.ones(len(steps), dtype=int), steps)])
    embeddings = []
    for c in chunks:
        x, lengths = pad_sequences(sequences[c])
        embeddings.append(tk.gru_runs([(tk.Tensor(x), lengths, gru.weights(), None)], pool=True)[0].values)
    return np.concatenate(embeddings)


def encode_corpus(
    params: HseModelParams,
    corpus: Corpus,
    mode: str = "hierarchical",
    max_units: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-sample embeddings of every pair, as (videos, paragraphs) arrays,
    encoded a chunk of pairs at a time (_chunks)."""
    if mode not in ENCODING_MODES:
        raise ContractError(f"unknown encoding mode {mode!r}")
    videos = [_truncated(video, max_units) for video, _ in corpus.pairs]
    paragraphs = [_truncated(paragraph, max_units) for _, paragraph in corpus.pairs]
    ones = np.ones(len(videos), dtype=int)
    runs = []
    for unit_lists, low, high in (
        ([v.clips for v in videos], params.enc_v_low, params.enc_v_high),
        ([p.sentences for p in paragraphs], params.enc_p_low, params.enc_p_high),
    ):
        if mode == "flat":
            runs.append((low, ones, [sum(map(len, units)) for units in unit_lists]))
        else:
            counts = list(map(len, unit_lists))
            runs.append((low, counts, [max(map(len, units)) if units else 0 for units in unit_lists]))
            runs.append((high, ones, counts))

    def encode(samples) -> np.ndarray:
        if mode == "flat":
            return encode_flat_batch(params, samples)[0].values
        return encode_batch(params, samples)[0].high.values

    chunks = _chunks(runs)
    return tuple(np.concatenate([encode(samples[c]) for c in chunks]) for samples in (videos, paragraphs))


def evaluate_retrieval(
    params: HseModelParams,
    corpus: Corpus,
    topk: Sequence[int] = DEFAULT_TOPK,
    mode: str = "hierarchical",
    max_units: int | None = None,
) -> tuple[RetrievalReport, RetrievalReport]:
    """Both retrieval directions over whole-sample embeddings: returns
    (paragraph->video, video->paragraph) reports. With max_units, every
    sample is first truncated to its first max_units clips/sentences
    (retrieval from partial observations)."""
    if max_units is not None and max_units < 1:
        raise ContractError("evaluate_retrieval requires max_units >= 1")
    videos, paragraphs = encode_corpus(params, corpus, mode, max_units)
    # one matrix serves both directions: each cosine entry depends only on
    # its two rows, so its transpose is the video x paragraph matrix, bit
    # for bit
    sims = tk.cosine(tk.Tensor(paragraphs), tk.Tensor(videos)).values
    true_cols = np.arange(len(sims))
    p2v = RetrievalReport.from_ranks("paragraph_to_video", _ranks(sims, true_cols), topk)
    v2p = RetrievalReport.from_ranks("video_to_paragraph", _ranks(sims.T, true_cols), topk)
    return p2v, v2p


def zeroshot_classify(
    params: HseModelParams,
    labeled_clips: Sequence[tuple[np.ndarray, int]],
    label_phrases: Sequence[np.ndarray],
) -> ZeroShotReport:
    """Nearest-label transfer: encode each label phrase with the low-level
    text encoder, each clip with the low-level video encoder, and predict
    the label with the highest cosine similarity. Top-5 accuracy clamps to
    the label-set size."""
    if not label_phrases:
        raise ContractError("zeroshot_classify requires at least one label phrase")
    if not labeled_clips:
        raise ContractError("zeroshot_classify requires at least one clip")
    true_labels = [int(label) for _, label in labeled_clips]
    for i, label in enumerate(true_labels):
        if not 0 <= label < len(label_phrases):
            raise ContractError(
                f"zeroshot_classify: clip {i} has label {label} outside [0, {len(label_phrases)})"
            )
    label_embs = _encode_sequences(params.enc_p_low, label_phrases)
    clip_embs = _encode_sequences(params.enc_v_low, [frames for frames, _ in labeled_clips])
    sims = tk.cosine(tk.Tensor(clip_embs), tk.Tensor(label_embs)).values
    predicted = np.argmax(sims, axis=1)  # the first label wins a tie
    top5_hits = _ranks(sims, true_labels) <= min(5, len(label_phrases))
    n = len(true_labels)
    return ZeroShotReport(
        num_labels=len(label_phrases),
        true_labels=true_labels,
        predicted=predicted.tolist(),
        top1=int(np.sum(predicted == true_labels)) / n,
        top5=int(np.sum(top5_hits)) / n,
    )
