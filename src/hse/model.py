"""GRU parameters, hierarchical and flat-sequence encoders, and layer-wise
decoders.

Sequence embeddings are channel-wise maxima over the per-step GRU hidden
outputs. The hierarchical encoders embed each clip (sentence) independently
from a zero initial state, then embed the resulting sequence of low-level
embeddings with a second GRU. Decoders mirror the hierarchy: a high-level
GRU seeded with the video/paragraph embedding emits one hidden state per
clip (sentence), each projected to a generated low-level embedding that in
turn seeds the low-level decoder GRU emitting generated frame (word)
features. Decoders have no step input; the hidden state carries all
information.

A GRU's weights are stored as the four blocks the GRU kernel
(tensorkit.gru_runs) multiplies by (see GruParams); the per-gate weights
of a checkpoint are views of them (HseModelParams.checkpoint_views). All
weight tensors of a model are in turn views of one flat buffer,
HseModelParams.values, which they tile in named_parameters order, so that
training can update a leading span of it with whole-buffer operations.
Every GRU runs through the kernel over a padded batch. The video and
paragraph towers have one hidden size per level and meet only in the
losses, so encode_batch, encode_flat_batch and decode_batch take one or
two batches, each of one modality, and return one result per batch: the
two batches' runs of a level are one paired kernel call (one tape record),
and training passes its video and paragraph batches together. Evaluation
passes one batch at a time, one run per modality. encode_sequences embeds
a batch of plain sequences, and encode_flat_batch each sample's
concatenated frames (words). encode_batch and encode_flat_batch pick the
encoders of each batch's modality by one rule (_modality). The encoders
let the kernel pool (pool=True). Embeddings stay matrices: one row per
clip (sentence) or per sample, with the clip counts, lengths and padded
units alongside (EncodedBatch), the form the losses take. A sample's
embedding is the same bits alone, in any batch, in any row order and
beside any batch of the other modality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import tensorkit as tk
from .data import ParagraphSample, VideoSample
from .errors import ContractError, DegenerateInputError, ShapeError
from .tensorkit import Tensor

__all__ = [
    "ModelDims",
    "GruParams",
    "DecoderParams",
    "HseModelParams",
    "EncodedBatch",
    "DecodedBatch",
    "build_params",
    "tile",
    "pad_sequences",
    "encode_sequences",
    "encode_flat_batch",
    "encode_batch",
    "decode_batch",
]

# decoders run without input; their GRUs keep [1, 3H] input weights (a zero
# input of width 1), which stay in the checkpoint and get zero gradients
DECODER_INPUT_DIM = 1

# the encoder GRUs, then the decoder GRUs: named_parameters and checkpoint order
_GRUS = (
    "enc_v_low", "enc_v_high", "enc_p_low", "enc_p_high",
    "dec_v_high", "dec_v_low", "dec_p_high", "dec_p_low",
)


@dataclass
class ModelDims:
    """Feature and hidden sizes shared by both modalities."""

    d_v: int
    d_t: int
    hidden_low: int = 32
    hidden_high: int = 32

    @property
    def embed_dim(self) -> int:
        # pooled hidden states are used as embeddings directly (no projection),
        # so the joint space dimension equals the high-level hidden size
        return self.hidden_high

    def validate(self) -> None:
        for name in ("d_v", "d_t", "hidden_low", "hidden_high"):
            if getattr(self, name) < 1:
                raise ContractError(f"ModelDims.{name} must be >= 1")

    def param_shapes(self) -> list[tuple[int, ...]]:
        """The shapes of all weight tensors, in named_parameters order."""
        self.validate()
        lo, hi, d = self.hidden_low, self.hidden_high, DECODER_INPUT_DIM
        # (input dim, hidden dim, projection width or 0 for an encoder) of
        # each GRU, in _GRUS order
        grus = [(self.d_v, lo, 0), (lo, hi, 0), (self.d_t, lo, 0), (lo, hi, 0)]
        grus += [(d, hi, lo), (d, lo, self.d_v), (d, hi, lo), (d, lo, self.d_t)]
        shapes = []
        for d_in, h, out in grus:
            shapes += [(d_in, 3 * h), (h, 2 * h), (h, h), (3 * h,)]
            if out:
                shapes += [(out, h), (out,)]
        return shapes


@dataclass
class GruParams:
    """Weights of one GRU cell, stored as the four C-contiguous blocks
    tensorkit.gru_sequence multiplies by, columns in z|r|h gate order:
    w [D, 3H] (input weights), u_zr [H, 2H] (update and reset recurrent
    weights), u_c [H, H] (candidate recurrent weights) and b [3H] (biases)."""

    w: Tensor
    u_zr: Tensor
    u_c: Tensor
    b: Tensor

    @property
    def hidden_dim(self) -> int:
        return self.u_c.values.shape[0]

    def weights(self) -> list[Tensor]:
        """The four blocks in the order tensorkit.gru_sequence takes."""
        return [self.w, self.u_zr, self.u_c, self.b]

    def named(self, prefix: str) -> Iterable[tuple[str, Tensor]]:
        return zip((f"{prefix}.{f}" for f in ("w", "u_zr", "u_c", "b")), self.weights())

    def views(self, prefix: str) -> Iterable[tuple[str, np.ndarray]]:
        """The per-gate weights as writable views of the blocks, named and
        ordered as in an HSE1 checkpoint: w_z, u_z, b_z, w_r, u_r, b_r, w_h,
        u_h, b_h, where W is [H, D] and U is [H, H] in
        z = sigmoid(W_z x + U_z h + b_z)."""
        h = self.hidden_dim
        for k, gate in enumerate("zrh"):
            cols = slice(k * h, (k + 1) * h)
            yield f"{prefix}.w_{gate}", self.w.values[:, cols].T
            yield f"{prefix}.u_{gate}", (self.u_zr.values[:, cols] if k < 2 else self.u_c.values).T
            yield f"{prefix}.b_{gate}", self.b.values[cols]


@dataclass
class DecoderParams:
    """Decoder GRU plus the affine projection onto the target feature space."""

    gru: GruParams
    out_w: Tensor
    out_b: Tensor

    def named(self, prefix: str) -> Iterable[tuple[str, Tensor]]:
        yield from self.gru.named(prefix)
        yield f"{prefix}.out_w", self.out_w
        yield f"{prefix}.out_b", self.out_b

    def views(self, prefix: str) -> Iterable[tuple[str, np.ndarray]]:
        yield from self.gru.views(prefix)
        yield f"{prefix}.out_w", self.out_w.values
        yield f"{prefix}.out_b", self.out_b.values


@dataclass
class HseModelParams:
    """All encoder and decoder weights for both modalities and both levels.
    values is the one flat buffer that every weight tensor is a view of,
    the tensors tiling it in named_parameters order."""

    dims: ModelDims
    enc_v_low: GruParams
    enc_v_high: GruParams
    enc_p_low: GruParams
    enc_p_high: GruParams
    dec_v_high: DecoderParams
    dec_v_low: DecoderParams
    dec_p_high: DecoderParams
    dec_p_low: DecoderParams
    values: np.ndarray

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """All weight tensors, in the order they tile values."""
        return self.leading_parameters(_GRUS[-1])

    def checkpoint_views(self) -> list[tuple[str, np.ndarray]]:
        """The entries of an HSE1 checkpoint, in file order: writable views
        of the weight tensors, per gate for each GRU."""
        return [item for prefix in _GRUS for item in getattr(self, prefix).views(prefix)]

    def leading_parameters(self, last: str) -> list[tuple[str, Tensor]]:
        """The weight tensors of the GRUs up to and including prefix last, in
        named_parameters order; they tile a leading span of values."""
        prefixes = _GRUS[: _GRUS.index(last) + 1]
        return [item for prefix in prefixes for item in getattr(self, prefix).named(prefix)]


def tile(buffer: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of consecutive pieces of a flat buffer, one per shape, from its
    start on."""
    sizes = [math.prod(shape) for shape in shapes]
    ends = np.cumsum(sizes, dtype=np.intp)
    return [buffer[end - size : end].reshape(shape) for shape, size, end in zip(shapes, sizes, ends)]


def build_params(dims: ModelDims) -> HseModelParams:
    """Zero-initialized parameters with the right shapes, all views of one
    buffer (HseModelParams.values)."""
    shapes = dims.param_shapes()
    values = np.zeros(sum(math.prod(shape) for shape in shapes))
    tensors = iter([Tensor(view, requires_grad=True) for view in tile(values, shapes)])

    def gru() -> GruParams:
        return GruParams(*itertools.islice(tensors, 4))

    def decoder() -> DecoderParams:
        return DecoderParams(gru(), next(tensors), next(tensors))

    grus = [decoder() if prefix.startswith("dec") else gru() for prefix in _GRUS]
    return HseModelParams(dims, *grus, values=values)


@dataclass
class EncodedBatch:
    """Embeddings of a batch of samples of one modality. low holds every
    clip (sentence) of every sample, sample by sample; counts[k] of its rows
    belong to sample k. units holds the same clips (sentences) as the
    zero-padded input features, lengths[i] frames (words) in row i."""

    low: Tensor  # [N, hidden_low]
    high: Tensor  # [K, hidden_high]
    counts: list[int]
    lengths: list[int]
    units: np.ndarray  # [N, max length, feature dim]


@dataclass
class DecodedBatch:
    """Generated embeddings and features of a batch of samples. units holds
    steps rows per clip (sentence), clip by clip; the rows past a clip's
    length are padding."""

    low: Tensor  # [N, hidden_low]
    units: Tensor  # [N * steps, feature dim]
    lengths: list[int]  # feature vectors generated per clip (sentence)

    @property
    def steps(self) -> int:
        return max(self.lengths)


def pad_sequences(sequences: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """Stack [T_b, D] sequences into a zero-padded [B, max T_b, D] array;
    returns it with the lengths T_b."""
    if not sequences:
        raise ContractError("need at least one sequence")
    try:
        frames = np.concatenate(sequences)
        lengths = [len(s) for s in sequences]
    except ValueError:  # a width or rank mismatch
        frames, lengths = None, [0]
    if frames is None or frames.ndim != 2 or min(lengths) < 1:
        raise ShapeError(
            f"sequences must be nonempty [T, D] arrays of one width, got shapes "
            f"{[list(np.shape(s)) for s in sequences]}"
        )
    bsz, steps = len(lengths), max(lengths)
    out = np.zeros((bsz * steps, frames.shape[1]))
    # frame j of row b goes to flat row b * steps + j: each frame's index,
    # shifted by the padding of the rows before it
    starts = np.cumsum(lengths) - lengths
    out[np.arange(len(frames)) + np.repeat(np.arange(0, bsz * steps, steps) - starts, lengths)] = frames
    return out.reshape(bsz, steps, -1), lengths


def _segment_rows(starts: Sequence[int], lengths: Sequence[int]) -> np.ndarray:
    """[len(starts), max length] row indices: row i lists starts[i] ..
    starts[i] + lengths[i] - 1, padded by repeating its last index."""
    steps = np.arange(max(lengths))[None, :]
    last = np.asarray(lengths)[:, None] - 1
    return np.asarray(starts)[:, None] + np.minimum(steps, last)


def encode_sequences(params: GruParams, sequences: Sequence[np.ndarray]) -> Tensor:
    """Embed a batch of [T_b, D] feature sequences in one GRU run from a
    zero state: the [B, H] channel-wise maxima of their hidden states."""
    x, lengths = pad_sequences(sequences)
    return tk.gru_sequence(Tensor(x), lengths, params.weights(), pool=True)


def _modality(params: HseModelParams, samples: Sequence) -> tuple[GruParams, GruParams, list]:
    """The low- and high-level encoders of the samples' modality, and each
    sample's clips (sentences). The samples must be all videos or all
    paragraphs, at least one, each with at least one clip (sentence)."""
    if not samples:
        raise ContractError("encoding requires at least one sample")
    video = isinstance(samples[0], VideoSample)
    if not all(isinstance(s, VideoSample if video else ParagraphSample) for s in samples):
        raise ContractError("encoding requires samples of one modality")
    unit_lists = [s.clips if video else s.sentences for s in samples]
    if not all(unit_lists):
        raise ContractError("encoding requires at least one clip/sentence per sample")
    if video:
        return params.enc_v_low, params.enc_v_high, unit_lists
    return params.enc_p_low, params.enc_p_high, unit_lists


def _one_or_two(batches: Sequence, what: str) -> None:
    if not 1 <= len(batches) <= 2:
        raise ContractError(f"{what} takes one or two batches, got {len(batches)}")


def encode_flat_batch(params: HseModelParams, *batches: Sequence) -> tuple[Tensor, ...]:
    """Flat-sequence baseline: ignore clip/sentence boundaries and encode the
    concatenation of each sample's frames (words) as one sequence with the
    low-level encoder of the samples' modality. Takes one or two batches,
    each of one modality, in one GRU run; returns each batch's [K, H]
    embeddings."""
    _one_or_two(batches, "encode_flat_batch")
    runs = []
    for samples in batches:
        enc_low, _, unit_lists = _modality(params, samples)
        x, lengths = pad_sequences([np.concatenate(units) for units in unit_lists])
        runs.append((Tensor(x), lengths, enc_low.weights(), None))
    return tk.gru_runs(runs, pool=True)


def encode_batch(params: HseModelParams, *batches: Sequence) -> tuple[EncodedBatch, ...]:
    """Embed every clip (sentence) of a batch of videos (paragraphs)
    independently, each from a zero state, then embed each sample's
    sequence of those embeddings with the high-level encoder. Takes one or
    two batches, each of one modality (a video batch and a paragraph batch
    in training), in one GRU run per level; returns one EncodedBatch per
    batch."""
    _one_or_two(batches, "encode_batch")
    encoders, counts, padded = [], [], []
    for samples in batches:
        enc_low, enc_high, unit_lists = _modality(params, samples)
        encoders.append((enc_low, enc_high))
        counts.append([len(units) for units in unit_lists])
        padded.append(pad_sequences([u for units in unit_lists for u in units]))
    lows = tk.gru_runs(
        [(Tensor(x), lengths, low.weights(), None) for (low, _), (x, lengths) in zip(encoders, padded)],
        pool=True,
    )
    high_ins = [tk.take(low, _segment_rows(np.cumsum([0] + c[:-1]), c)) for low, c in zip(lows, counts)]
    highs = tk.gru_runs(
        [(x, c, high.weights(), None) for (_, high), x, c in zip(encoders, high_ins, counts)], pool=True
    )
    if not all(np.all(np.isfinite(t.values)) for t in (*lows, *highs)):
        raise DegenerateInputError("non-finite embedding produced by encoder")
    return tuple(
        EncodedBatch(low=low, high=high, counts=c, lengths=lengths, units=x)
        for low, high, c, (x, lengths) in zip(lows, highs, counts, padded)
    )


def decode_batch(params: HseModelParams, *batches: tuple) -> tuple[DecodedBatch, ...]:
    """Decode one or two batches, each a tuple (high, counts, lengths,
    modality): generate, for each row k of the [K, hidden_high] embeddings
    high, counts[k] low-level embeddings, and from the i-th low-level
    embedding of the batch lengths[i] feature vectors (as counted in an
    EncodedBatch), with the decoders of modality ("video" or "text").

    The high-level decoder GRU starts from the sample embedding and runs one
    step per clip (sentence) without input; every hidden state is projected
    to a generated low-level embedding. Each of those seeds the low-level
    decoder GRU for one step per frame (word), whose hidden states are
    projected to generated features. One GRU run per level for both
    batches; returns one DecodedBatch per batch.
    """
    _one_or_two(batches, "decode_batch")
    decoders = []
    for _, counts, lengths, modality in batches:
        if modality == "video":
            decoders.append((params.dec_v_high, params.dec_v_low))
        elif modality == "text":
            decoders.append((params.dec_p_high, params.dec_p_low))
        else:
            raise ContractError(f"unknown modality {modality!r}")
        if not counts or min(counts) < 1 or sum(counts) != len(lengths) or min(lengths) < 1:
            raise ContractError(f"decode_batch: counts {counts} must split lengths {lengths}, all >= 1")
    states = tk.gru_runs(
        [(None, counts, high_dec.gru.weights(), high) for (high, counts, _, _), (high_dec, _) in zip(batches, decoders)]
    )
    lows = []
    for clip_states, (_, counts, _, _), (high_dec, _) in zip(states, batches, decoders):
        k, n_max = len(counts), max(counts)
        valid = [b * n_max + i for b, n in enumerate(counts) for i in range(n)]
        flat = tk.reshape(clip_states, (k * n_max, high_dec.gru.hidden_dim))
        lows.append(tk.affine(tk.take(flat, valid), high_dec.out_w, high_dec.out_b))
    states = tk.gru_runs(
        [(None, lengths, low_dec.gru.weights(), low) for (_, _, lengths, _), (_, low_dec), low in zip(batches, decoders, lows)]
    )
    decoded = []
    for unit_states, (_, _, lengths, _), (_, low_dec), low in zip(states, batches, decoders, lows):
        flat = tk.reshape(unit_states, (len(lengths) * max(lengths), low_dec.gru.hidden_dim))
        units = tk.affine(flat, low_dec.out_w, low_dec.out_b)
        decoded.append(DecodedBatch(low=low, units=units, lengths=list(lengths)))
    return tuple(decoded)
