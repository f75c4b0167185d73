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

Every GRU runs through tensorkit.gru_sequence over a padded batch:
encode_batch and decode_batch handle all samples of one modality at once
(one GRU run per level), encode_sequences and encode_flat_batch a batch of
plain sequences. Embeddings stay matrices: one row per clip (sentence) or
per sample, with the number of clip rows of each sample alongside, which is
the form the losses take. A sample's embedding is the same bits alone, in
any batch and in any row order. gru_step is the single-step cell, kept as
the reference the kernel is tested against; it multiplies in the kernel's
layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import tensorkit as tk
from .errors import ContractError, HseError, ShapeError
from .tensorkit import Tensor

__all__ = [
    "ModelDims",
    "GruParams",
    "DecoderParams",
    "HseModelParams",
    "EncodedBatch",
    "DecodedBatch",
    "build_params",
    "gru_step",
    "pad_sequences",
    "encode_sequences",
    "encode_flat_batch",
    "encode_batch",
    "decode_batch",
]

# decoders run without input; their GRUs keep [H, 1] input weights (a zero
# input of width 1), which stay in the checkpoint and get zero gradients
DECODER_INPUT_DIM = 1

_GRU_FIELDS = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")


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


@dataclass
class GruParams:
    """Update/reset/candidate weights of one GRU cell."""

    input_dim: int
    hidden_dim: int
    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor

    @classmethod
    def zeros(cls, input_dim: int, hidden_dim: int) -> "GruParams":
        def w():
            return Tensor(np.zeros((hidden_dim, input_dim)), requires_grad=True)

        def u():
            return Tensor(np.zeros((hidden_dim, hidden_dim)), requires_grad=True)

        def b():
            return Tensor(np.zeros(hidden_dim), requires_grad=True)

        return cls(input_dim, hidden_dim, w(), u(), b(), w(), u(), b(), w(), u(), b())

    def named(self, prefix: str) -> Iterable[tuple[str, Tensor]]:
        for f in _GRU_FIELDS:
            yield f"{prefix}.{f}", getattr(self, f)

    def gates(self) -> list[Tensor]:
        """The nine cell tensors in the order tensorkit.gru_sequence takes."""
        return [getattr(self, f) for f in _GRU_FIELDS]

    def validate(self) -> None:
        d, h = self.input_dim, self.hidden_dim
        expect = {
            "w_z": (h, d), "u_z": (h, h), "b_z": (h,),
            "w_r": (h, d), "u_r": (h, h), "b_r": (h,),
            "w_h": (h, d), "u_h": (h, h), "b_h": (h,),
        }
        for name, shape in expect.items():
            got = getattr(self, name).values.shape
            if got != shape:
                raise ShapeError(f"GruParams.{name} has shape {list(got)}, expected {list(shape)}")


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


@dataclass
class HseModelParams:
    """All encoder and decoder weights for both modalities and both levels."""

    dims: ModelDims
    enc_v_low: GruParams
    enc_v_high: GruParams
    enc_p_low: GruParams
    enc_p_high: GruParams
    dec_v_high: DecoderParams
    dec_v_low: DecoderParams
    dec_p_high: DecoderParams
    dec_p_low: DecoderParams

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """All weights in the fixed canonical order used for persistence
        and optimizer updates."""
        out: list[tuple[str, Tensor]] = []
        for prefix in ("enc_v_low", "enc_v_high", "enc_p_low", "enc_p_high"):
            out.extend(getattr(self, prefix).named(prefix))
        for prefix in ("dec_v_high", "dec_v_low", "dec_p_high", "dec_p_low"):
            out.extend(getattr(self, prefix).named(prefix))
        return out

    def encoder_parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for prefix in ("enc_v_low", "enc_v_high", "enc_p_low", "enc_p_high"):
            out.extend(getattr(self, prefix).named(prefix))
        return out

    def flat_encoder_parameters(self) -> list[tuple[str, Tensor]]:
        """Low-level encoders only: the parameter set of the flat baseline."""
        out: list[tuple[str, Tensor]] = []
        for prefix in ("enc_v_low", "enc_p_low"):
            out.extend(getattr(self, prefix).named(prefix))
        return out

    def validate(self) -> None:
        self.dims.validate()
        d = self.dims
        checks = [
            (self.enc_v_low, d.d_v, d.hidden_low),
            (self.enc_v_high, d.hidden_low, d.hidden_high),
            (self.enc_p_low, d.d_t, d.hidden_low),
            (self.enc_p_high, d.hidden_low, d.hidden_high),
            (self.dec_v_high.gru, DECODER_INPUT_DIM, d.hidden_high),
            (self.dec_v_low.gru, DECODER_INPUT_DIM, d.hidden_low),
            (self.dec_p_high.gru, DECODER_INPUT_DIM, d.hidden_high),
            (self.dec_p_low.gru, DECODER_INPUT_DIM, d.hidden_low),
        ]
        for gru, in_dim, hid in checks:
            if gru.input_dim != in_dim or gru.hidden_dim != hid:
                raise ShapeError(
                    f"GRU dims ({gru.input_dim}, {gru.hidden_dim}) do not match "
                    f"expected ({in_dim}, {hid})"
                )
            gru.validate()


def build_params(dims: ModelDims) -> HseModelParams:
    """Zero-initialized parameter structure with the right shapes."""
    dims.validate()
    return HseModelParams(
        dims=dims,
        enc_v_low=GruParams.zeros(dims.d_v, dims.hidden_low),
        enc_v_high=GruParams.zeros(dims.hidden_low, dims.hidden_high),
        enc_p_low=GruParams.zeros(dims.d_t, dims.hidden_low),
        enc_p_high=GruParams.zeros(dims.hidden_low, dims.hidden_high),
        dec_v_high=_zero_decoder(dims.hidden_high, dims.hidden_low),
        dec_v_low=_zero_decoder(dims.hidden_low, dims.d_v),
        dec_p_high=_zero_decoder(dims.hidden_high, dims.hidden_low),
        dec_p_low=_zero_decoder(dims.hidden_low, dims.d_t),
    )


def _zero_decoder(hidden_dim: int, target_dim: int) -> DecoderParams:
    return DecoderParams(
        gru=GruParams.zeros(DECODER_INPUT_DIM, hidden_dim),
        out_w=Tensor(np.zeros((target_dim, hidden_dim)), requires_grad=True),
        out_b=Tensor(np.zeros(target_dim), requires_grad=True),
    )


@dataclass
class EncodedBatch:
    """Embeddings of a batch of samples of one modality. low holds every
    clip (sentence) of every sample, sample by sample; counts[k] of its rows
    belong to sample k."""

    low: Tensor  # [N, hidden_low]
    high: Tensor  # [K, hidden_high]
    counts: list[int]


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


def gru_step(params: GruParams, x, h: Tensor) -> Tensor:
    """One GRU update.

    z = sigmoid(Wz x + Uz h + bz), r = sigmoid(Wr x + Ur h + br),
    cand = tanh(Wh x + Uh (r*h) + bh), h' = (1 - z)*h + z*cand.

    The encoders and decoders run tensorkit.gru_sequence instead; this
    single-step cell is the reference it is tested against. Each product
    is a row vector times the transposed weight, the layout the kernel
    multiplies in.
    """
    x = x if isinstance(x, Tensor) else tk.constant(x)
    if x.values.ndim != 1 or x.values.shape[0] != params.input_dim:
        raise ShapeError(
            f"gru_step input has shape {list(x.shape)}, expected [{params.input_dim}]"
        )
    if h.values.ndim != 1 or h.values.shape[0] != params.hidden_dim:
        raise ShapeError(
            f"gru_step state has shape {list(h.shape)}, expected [{params.hidden_dim}]"
        )
    z = tk.sigmoid(tk.add(tk.add(_times(params.w_z, x), _times(params.u_z, h)), params.b_z))
    r = tk.sigmoid(tk.add(tk.add(_times(params.w_r, x), _times(params.u_r, h)), params.b_r))
    cand = tk.tanh(
        tk.add(tk.add(_times(params.w_h, x), _times(params.u_h, tk.mul(r, h))), params.b_h)
    )
    keep = tk.add_scalar(tk.mul_scalar(z, -1.0), 1.0)
    return tk.add(tk.mul(keep, h), tk.mul(z, cand))


def _times(w: Tensor, v: Tensor) -> Tensor:
    """w v for a 1-d v, computed as the row vector v times the transposed w."""
    row = tk.matmul(tk.reshape(v, (1, v.values.shape[0])), tk.transpose(w))
    return tk.reshape(row, (w.values.shape[0],))


def pad_sequences(sequences: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """Stack [T_b, D] sequences into a zero-padded [B, max T_b, D] array;
    returns it with the lengths T_b."""
    seqs = [np.asarray(s, dtype=np.float64) for s in sequences]
    if not seqs:
        raise ContractError("need at least one sequence")
    dim = seqs[0].shape[-1] if seqs[0].ndim == 2 else -1
    if any(s.ndim != 2 or s.shape[0] < 1 or s.shape[1] != dim for s in seqs):
        raise ShapeError(
            f"sequences must be nonempty [T, D] arrays of one width, got shapes "
            f"{[list(s.shape) for s in seqs]}"
        )
    lengths = [s.shape[0] for s in seqs]
    out = np.zeros((len(seqs), max(lengths), dim))
    for b, s in enumerate(seqs):
        out[b, : s.shape[0]] = s
    return out, lengths


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
    return tk.masked_max(tk.gru_sequence(tk.constant(x), lengths, params.gates()), lengths)


def _units_of(sample) -> list[np.ndarray]:
    units = getattr(sample, "clips", None)
    if units is None:
        units = getattr(sample, "sentences", None)
    if units is None:
        raise ContractError(f"cannot encode object of type {type(sample).__name__}")
    return units


def encode_flat_batch(params: GruParams, samples: Sequence) -> Tensor:
    """Flat-sequence baseline: ignore clip/sentence boundaries and encode the
    concatenation of each sample's frames (words) as one sequence. Returns
    the [K, H] embeddings."""
    return encode_sequences(params, [np.concatenate(_units_of(s)) for s in samples])


def encode_batch(
    params: HseModelParams,
    samples: Sequence,
    carry_low_state: bool = False,
) -> EncodedBatch:
    """Embed every clip (sentence) of a batch of videos (paragraphs)
    independently, then embed each sample's sequence of those embeddings
    with the high-level encoder: one GRU run per level.

    carry_low_state threads the low-level GRU state across unit boundaries
    instead of resetting it to zero per unit: the low level then runs over
    each sample's concatenated frames, and embeddings are still pooled per
    unit. Off by default.
    """
    if not samples:
        raise ContractError("encode_batch requires at least one sample")
    unit_lists = [_units_of(s) for s in samples]
    video = hasattr(samples[0], "clips")
    if any(hasattr(s, "clips") != video for s in samples):
        raise ContractError("encode_batch requires samples of one modality")
    if any(not units for units in unit_lists):
        raise ContractError("encode_batch requires at least one clip/sentence per sample")
    if video:
        enc_low, enc_high = params.enc_v_low, params.enc_v_high
    else:
        enc_low, enc_high = params.enc_p_low, params.enc_p_high
    counts = [len(units) for units in unit_lists]
    lengths = [u.shape[0] for units in unit_lists for u in units]
    if carry_low_state:
        # one run per sample over its concatenated frames; each unit's steps
        # are then gathered from the flattened [K * T, H] states
        x, totals = pad_sequences([np.concatenate(units) for units in unit_lists])
        steps = x.shape[1]
        starts = [
            k * steps + offset
            for k, units in enumerate(unit_lists)
            for offset in np.cumsum([0] + [u.shape[0] for u in units[:-1]])
        ]
        states = tk.gru_sequence(tk.constant(x), totals, enc_low.gates())
        flat = tk.reshape(states, (len(samples) * steps, enc_low.hidden_dim))
        per_unit = tk.take(flat, _segment_rows(starts, lengths))
    else:
        x, _ = pad_sequences([u for units in unit_lists for u in units])
        per_unit = tk.gru_sequence(tk.constant(x), lengths, enc_low.gates())
    low = tk.masked_max(per_unit, lengths)
    high_in = tk.take(low, _segment_rows(np.cumsum([0] + counts[:-1]), counts))
    high = tk.masked_max(tk.gru_sequence(high_in, counts, enc_high.gates()), counts)
    if not (np.all(np.isfinite(low.values)) and np.all(np.isfinite(high.values))):
        raise HseError("non-finite embedding produced by encoder")
    return EncodedBatch(low=low, high=high, counts=counts)


def _project(dec: DecoderParams, states: Tensor) -> Tensor:
    """Affine map out_w h + out_b of every row of a 2-d tensor of states."""
    ones = tk.constant(np.ones((states.values.shape[0], 1)))
    bias = tk.matmul(ones, tk.reshape(dec.out_b, (1, dec.out_b.values.shape[0])))
    return tk.add(tk.matmul(states, tk.transpose(dec.out_w)), bias)


def decode_batch(
    params: HseModelParams,
    high: Tensor,
    unit_lengths: Sequence[Sequence[int]],
    modality: str,
) -> DecodedBatch:
    """Generate, for each row k of the [K, hidden_high] embeddings high,
    len(unit_lengths[k]) low-level embeddings and then unit_lengths[k][i]
    feature vectors from the i-th of them.

    The high-level decoder GRU starts from the sample embedding and runs one
    step per clip (sentence) without input; every hidden state is projected
    to a generated low-level embedding. Each of those seeds the low-level
    decoder GRU for one step per frame (word), whose hidden states are
    projected to generated features. One GRU run per level.
    """
    if modality == "video":
        dec_high, dec_low = params.dec_v_high, params.dec_v_low
    elif modality == "text":
        dec_high, dec_low = params.dec_p_high, params.dec_p_low
    else:
        raise ContractError(f"unknown modality {modality!r}")
    counts = [len(n_i) for n_i in unit_lengths]
    lengths = [int(c) for n_i in unit_lengths for c in n_i]
    if not counts or min(counts) < 1 or min(lengths) < 1:
        raise ContractError("decode_batch requires n >= 1 and every n_i >= 1")
    k, n_max, t_max = len(counts), max(counts), max(lengths)
    states = tk.gru_sequence(None, counts, dec_high.gru.gates(), high)
    valid = [b * n_max + i for b, n in enumerate(counts) for i in range(n)]
    flat = tk.reshape(states, (k * n_max, dec_high.gru.hidden_dim))
    low = _project(dec_high, tk.take(flat, valid))
    unit_states = tk.gru_sequence(None, lengths, dec_low.gru.gates(), low)
    flat = tk.reshape(unit_states, (len(lengths) * t_max, dec_low.gru.hidden_dim))
    return DecodedBatch(low=low, units=_project(dec_low, flat), lengths=lengths)
