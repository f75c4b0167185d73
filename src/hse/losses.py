"""Training objectives: cosine matching, ranking and clustering losses,
layer-wise reconstruction, weak-correspondence approximation, and the
combined objective.

Sign convention. The ranking and clustering losses exist in two modes:

* "corrected" (default): the standard triplet direction. For a batch of K
  aligned pairs the high-level matching term is

      sum_k sum_{k'!=k} [a + match(v_k', p_k) - match(v_k, p_k)]_+
                      + [a + match(v_k, p_k') - match(v_k, p_k)]_+

  so minimizing pulls matched pairs together and pushes in-batch negatives
  at least a margin below them. The clustering term penalizes distinct
  same-modality items whose similarity exceeds 1 - margin:
  [margin + match(x', x) - 1]_+.

* "literal": the same summations with the opposite sign placement
  ([a + match(v_k, p_k) - match(v_k', p_k)]_+ and
  [margin + 1 - match(x', x)]_+), kept selectable for auditability.

All ranking losses share one kernel over a K x K similarity matrix, so the
weak-correspondence loss is by construction the high-level matching loss
applied to the matrix of averaged clip/sentence similarities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensorkit as tk
from .errors import ConfigError, ContractError, DegenerateInputError, ShapeError
from .model import (
    EncodedBatch,
    HseModelParams,
    decode_batch,
    encode_batch,
    pad_sequences,
)
from .tensorkit import Tensor

__all__ = [
    "LossConfig",
    "LossBreakdown",
    "match",
    "similarity_matrix",
    "ranking_loss_from_similarity",
    "loss_match_high",
    "loss_match_low",
    "loss_cluster_high",
    "loss_cluster_low",
    "loss_reconstruct",
    "avg_match",
    "loss_match_low_weak",
    "total_loss",
]

SIGN_MODES = ("corrected", "literal")
CORRESPONDENCE_MODES = ("strong", "weak", "none")


@dataclass
class LossConfig:
    """Margins, reconstruction weight, and mode switches for the objective."""

    alpha: float = 0.2
    beta: float = 0.2
    gamma: float = 0.2
    eta: float = 0.2
    beta_prime: float = 0.2
    tau: float = 5e-4
    correspondence: str = "strong"  # strong | weak | none (none drops the low-level terms)
    sign_mode: str = "corrected"

    def validate(self) -> None:
        for name in ("alpha", "beta", "gamma", "eta", "beta_prime"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"margin {name} must be > 0")
        if self.tau < 0:
            raise ConfigError("tau must be >= 0")
        if self.correspondence not in CORRESPONDENCE_MODES:
            raise ConfigError(f"correspondence must be one of {CORRESPONDENCE_MODES}")
        if self.sign_mode not in SIGN_MODES:
            raise ConfigError(f"sign_mode must be one of {SIGN_MODES}")


@dataclass
class LossBreakdown:
    """Per-component values of one objective evaluation (already normalized
    by the batch size). total composes exactly as
    match_high + match_low + cluster_high + cluster_low + tau * reconstruct."""

    match_high: float
    match_low: float
    cluster_high: float
    cluster_low: float
    reconstruct: float
    total: float
    node: Tensor | None = None  # differentiable total, for backward()

    def components(self) -> dict[str, float]:
        return {
            "match_high": self.match_high,
            "match_low": self.match_low,
            "cluster_high": self.cluster_high,
            "cluster_low": self.cluster_low,
            "reconstruct": self.reconstruct,
            "total": self.total,
        }


def match(u: Tensor, w: Tensor) -> Tensor:
    """Cosine similarity u.w / (|u||w|) as a differentiable scalar."""
    if u.values.ndim != 1 or w.values.ndim != 1 or u.values.shape != w.values.shape:
        raise ShapeError(
            f"match expects equal-length vectors, got {list(u.shape)} and {list(w.shape)}"
        )
    nu = tk.sqrt(tk.reduce_sum(tk.square(u)))
    nw = tk.sqrt(tk.reduce_sum(tk.square(w)))
    if nu.item() == 0.0 or nw.item() == 0.0:
        raise DegenerateInputError("match called with a zero-norm vector")
    dot = tk.reduce_sum(tk.mul(u, w))
    return tk.div(dot, tk.mul(nu, nw))


def similarity_matrix(us: Sequence[Tensor], ws: Sequence[Tensor]) -> Tensor:
    """Matrix of cosine similarities, entry (i, j) = match(us[i], ws[j])."""
    if not us or not ws:
        raise ContractError("similarity_matrix requires nonempty embedding lists")
    u_mat = tk.stack(list(us))
    w_mat = tk.stack(list(ws))
    if u_mat.values.shape[1] != w_mat.values.shape[1]:
        raise ShapeError(
            f"embedding dimensions differ: {u_mat.values.shape[1]} vs {w_mat.values.shape[1]}"
        )
    return tk.cosine(u_mat, w_mat)


def ranking_loss_from_similarity(sim: Tensor, margin: float, sign_mode: str = "corrected") -> Tensor:
    """Margin ranking loss over a square similarity matrix whose diagonal
    holds the aligned pairs; sums both retrieval directions over all
    off-diagonal negatives."""
    _check_sign_mode(sign_mode)
    if sim.values.ndim != 2 or sim.values.shape[0] != sim.values.shape[1]:
        raise ShapeError(f"ranking loss needs a square matrix, got {list(sim.shape)}")
    k = sim.values.shape[0]
    eye = np.eye(k)
    diag_mask = tk.constant(eye)
    off_mask = tk.constant(1.0 - eye)
    ones_col = tk.constant(np.ones((k, 1)))
    ones_row = tk.constant(np.ones((1, k)))
    diag = tk.reduce_sum(tk.mul(sim, diag_mask), axis=0)  # entry k = sim[k, k]
    d_cols = tk.matmul(ones_col, tk.reshape(diag, (1, k)))  # (i, j) -> sim[j, j]
    d_rows = tk.matmul(tk.reshape(diag, (k, 1)), ones_row)  # (i, j) -> sim[i, i]
    if sign_mode == "corrected":
        t1 = tk.relu_hinge(tk.add_scalar(tk.sub(sim, d_cols), margin))
        t2 = tk.relu_hinge(tk.add_scalar(tk.sub(sim, d_rows), margin))
    else:
        t1 = tk.relu_hinge(tk.add_scalar(tk.sub(d_cols, sim), margin))
        t2 = tk.relu_hinge(tk.add_scalar(tk.sub(d_rows, sim), margin))
    return tk.add(
        tk.reduce_sum(tk.mul(t1, off_mask)),
        tk.reduce_sum(tk.mul(t2, off_mask)),
    )


def _cluster_from_similarity(sim: Tensor, margin: float, sign_mode: str) -> Tensor:
    k = sim.values.shape[0]
    off_mask = tk.constant(1.0 - np.eye(k))
    if sign_mode == "corrected":
        terms = tk.relu_hinge(tk.add_scalar(sim, margin - 1.0))
    else:
        terms = tk.relu_hinge(tk.add_scalar(tk.mul_scalar(sim, -1.0), margin + 1.0))
    return tk.reduce_sum(tk.mul(terms, off_mask))


def _check_sign_mode(sign_mode: str) -> None:
    if sign_mode not in SIGN_MODES:
        raise ConfigError(f"sign_mode must be one of {SIGN_MODES}")


def loss_match_high(
    videos: Sequence[Tensor],
    paragraphs: Sequence[Tensor],
    alpha: float,
    sign_mode: str = "corrected",
) -> Tensor:
    """Cross-modal ranking loss over whole-sample embeddings."""
    if len(videos) != len(paragraphs):
        raise ContractError(
            f"batch length mismatch: {len(videos)} videos vs {len(paragraphs)} paragraphs"
        )
    if not videos:
        raise ContractError("loss_match_high requires a nonempty batch")
    return ranking_loss_from_similarity(similarity_matrix(videos, paragraphs), alpha, sign_mode)


def loss_match_low(
    clips: Sequence[Sequence[Tensor]],
    sentences: Sequence[Sequence[Tensor]],
    beta: float,
    sign_mode: str = "corrected",
) -> Tensor:
    """Cross-modal ranking loss over aligned clip/sentence embeddings.

    clips[k][i] must align with sentences[k][i]; negatives are every other
    (pair, index) combination across the batch.
    """
    if len(clips) != len(sentences):
        raise ContractError("batch length mismatch between clips and sentences")
    for k, (cs, ss) in enumerate(zip(clips, sentences)):
        if len(cs) != len(ss):
            raise ContractError(
                f"pair {k} has {len(cs)} clips but {len(ss)} sentences; there is no "
                "clip/sentence alignment, use loss_match_low_weak instead"
            )
    flat_clips = [c for cs in clips for c in cs]
    flat_sents = [s for ss in sentences for s in ss]
    if not flat_clips:
        raise ContractError("loss_match_low requires at least one clip/sentence pair")
    return ranking_loss_from_similarity(
        similarity_matrix(flat_clips, flat_sents), beta, sign_mode
    )


def loss_cluster_high(
    videos: Sequence[Tensor],
    paragraphs: Sequence[Tensor],
    gamma: float,
    sign_mode: str = "corrected",
) -> Tensor:
    """Within-modality separation loss over whole-sample embeddings.

    For every ordered pair of distinct items, penalizes similarity above
    1 - gamma (self-similarity is 1 by definition)."""
    _check_sign_mode(sign_mode)
    if not videos or not paragraphs:
        raise ContractError("loss_cluster_high requires nonempty batches")
    loss = _cluster_from_similarity(similarity_matrix(videos, videos), gamma, sign_mode)
    return tk.add(
        loss, _cluster_from_similarity(similarity_matrix(paragraphs, paragraphs), gamma, sign_mode)
    )


def loss_cluster_low(
    clips: Sequence[Sequence[Tensor]],
    sentences: Sequence[Sequence[Tensor]],
    eta: float,
    sign_mode: str = "corrected",
) -> Tensor:
    """Separation loss over the pooled clip and sentence embeddings of a batch."""
    _check_sign_mode(sign_mode)
    flat_clips = [c for cs in clips for c in cs]
    flat_sents = [s for ss in sentences for s in ss]
    if not flat_clips or not flat_sents:
        raise ContractError("loss_cluster_low requires at least one clip and one sentence")
    loss = _cluster_from_similarity(similarity_matrix(flat_clips, flat_clips), eta, sign_mode)
    return tk.add(
        loss,
        _cluster_from_similarity(similarity_matrix(flat_sents, flat_sents), eta, sign_mode),
    )


def _averaged_similarity(
    clips: Sequence[Sequence[Tensor]], sentences: Sequence[Sequence[Tensor]]
) -> Tensor:
    """Matrix whose entry (a, b) is the mean cosine similarity over all
    combinations of the clips of pair a and the sentences of pair b: one
    similarity matrix of every clip against every sentence, reduced by
    block means. Each block is computed from its own rows alone, so entry
    (a, b) is the same bits as avg_match(clips[a], sentences[b])."""
    if any(not cs for cs in clips) or any(not ss for ss in sentences):
        raise ContractError("avg_match requires nonempty embedding lists")
    sim = similarity_matrix([c for cs in clips for c in cs], [s for ss in sentences for s in ss])
    return tk.segment_mean(sim, [len(cs) for cs in clips], [len(ss) for ss in sentences])


def avg_match(clips: Sequence[Tensor], sentences: Sequence[Tensor]) -> Tensor:
    """Mean cosine similarity over all clip/sentence combinations of one pair."""
    return tk.reshape(_averaged_similarity([clips], [sentences]), ())


def loss_match_low_weak(
    clips: Sequence[Sequence[Tensor]],
    sentences: Sequence[Sequence[Tensor]],
    beta_prime: float,
    sign_mode: str = "corrected",
) -> Tensor:
    """Low-level ranking loss without clip/sentence alignment: the ranking
    kernel applied to the matrix of averaged similarities, entry (a, b) =
    avg_match(clips of pair a, sentences of pair b)."""
    if len(clips) != len(sentences) or not clips:
        raise ContractError("loss_match_low_weak requires a nonempty batch of pairs")
    return ranking_loss_from_similarity(
        _averaged_similarity(clips, sentences), beta_prime, sign_mode
    )


def _reconstruction_error(
    low_hat: Tensor,
    low_targets: np.ndarray,
    units_hat: Tensor,
    unit_targets: np.ndarray,
    unit_weights: np.ndarray,
) -> Tensor:
    """sum |low_hat - low_targets|^2 + sum_r unit_weights[r] |units_hat[r] - unit_targets[r]|^2
    over the rows of two 2-d tensors and their constant targets."""
    low_err = tk.reduce_sum(tk.square(tk.sub(low_hat, tk.constant(low_targets))))
    weights = tk.constant(np.broadcast_to(unit_weights[:, None], unit_targets.shape))
    unit_err = tk.reduce_sum(
        tk.mul(tk.square(tk.sub(units_hat, tk.constant(unit_targets))), weights)
    )
    return tk.add(low_err, unit_err)


def _target_rows(targets: Sequence) -> np.ndarray:
    return np.stack([t.values if isinstance(t, Tensor) else np.asarray(t) for t in targets])


def loss_reconstruct(
    encoded_low: Sequence,
    decoded_low: Sequence[Tensor],
    decoded_units: Sequence[Sequence[Tensor]],
    raw_units: Sequence[np.ndarray],
) -> Tensor:
    """Squared-error reconstruction for one modality of one sample:

        sum_i { |low_hat_i - low_i|^2 + (1/n_i) sum_j |unit_hat_ij - unit_ij|^2 }

    Encoder outputs are treated as constant targets (tensors or plain
    arrays are both accepted); gradients flow only through the decoded
    branch. Call once per modality and add.
    """
    n = len(encoded_low)
    if len(decoded_low) != n or len(decoded_units) != n or len(raw_units) != n:
        raise ContractError("reconstruction target and decoded counts differ")
    for i, (rows, raw) in enumerate(zip(decoded_units, raw_units)):
        if len(rows) != raw.shape[0]:
            raise ContractError(
                f"unit {i}: decoded {len(rows)} feature vectors, target has {raw.shape[0]}"
            )
    return _reconstruction_error(
        tk.stack(list(decoded_low)),
        _target_rows(encoded_low),
        tk.stack([row for rows in decoded_units for row in rows]),
        np.concatenate(list(raw_units)),
        np.concatenate([np.full(raw.shape[0], 1.0 / raw.shape[0]) for raw in raw_units]),
    )


def _batch_reconstruct(
    params: HseModelParams,
    encoded: EncodedBatch,
    units: Sequence[Sequence[np.ndarray]],
    low_targets: np.ndarray,
    modality: str,
) -> Tensor:
    """loss_reconstruct summed over a batch of samples of one modality,
    decoded in one decode_batch call. units[k] holds the raw clips
    (sentences) of sample k; low_targets their target embeddings, stacked."""
    raw = [u for us in units for u in us]
    unit_lengths = [[u.shape[0] for u in us] for us in units]
    decoded = decode_batch(params, encoded.high, unit_lengths, modality)
    padded, lengths = pad_sequences(raw)
    lengths = np.asarray(lengths)[:, None]
    weights = (np.arange(decoded.steps)[None, :] < lengths) / lengths  # 1/n_i, 0 on padding
    return _reconstruction_error(
        decoded.low,
        low_targets,
        decoded.units,
        padded.reshape(-1, padded.shape[2]),
        weights.reshape(-1),
    )


def total_loss(
    batch: Sequence[tuple],
    params: HseModelParams,
    config: LossConfig,
    carry_low_state: bool = False,
    reconstruction_targets: Sequence[tuple[Sequence, Sequence]] | None = None,
) -> LossBreakdown:
    """Evaluate the full objective on a batch of (video, paragraph) pairs.

    Every component is normalized by the number of pairs K. Decoding is
    skipped entirely when tau == 0. The returned breakdown's node field is
    the differentiable total.

    reconstruction_targets optionally supplies per-pair (video low, text
    low) embedding targets; by default the current encoder outputs are the
    targets. Either way targets are constants with no gradient, so
    finite-difference verification of this objective must hold them fixed.
    """
    config.validate()
    if not batch:
        raise ContractError("total_loss requires a nonempty batch")
    k = len(batch)
    v_batch = encode_batch(params, [video for video, _ in batch], carry_low_state)
    p_batch = encode_batch(params, [paragraph for _, paragraph in batch], carry_low_state)
    v_hier = v_batch.samples()
    p_hier = p_batch.samples()
    videos = [ve.high for ve in v_hier]
    paragraphs = [pe.high for pe in p_hier]
    clip_embs = [ve.low for ve in v_hier]
    sent_embs = [pe.low for pe in p_hier]

    norm = 1.0 / k
    mh = tk.mul_scalar(
        loss_match_high(videos, paragraphs, config.alpha, config.sign_mode), norm
    )
    ch = tk.mul_scalar(
        loss_cluster_high(videos, paragraphs, config.gamma, config.sign_mode), norm
    )
    if config.correspondence == "strong":
        ml = tk.mul_scalar(
            loss_match_low(clip_embs, sent_embs, config.beta, config.sign_mode), norm
        )
    elif config.correspondence == "weak":
        ml = tk.mul_scalar(
            loss_match_low_weak(clip_embs, sent_embs, config.beta_prime, config.sign_mode), norm
        )
    else:
        ml = tk.constant(0.0)
    if config.correspondence == "none":
        cl = tk.constant(0.0)
    else:
        cl = tk.mul_scalar(
            loss_cluster_low(clip_embs, sent_embs, config.eta, config.sign_mode), norm
        )

    if config.tau > 0.0:
        if reconstruction_targets is None:
            v_targets, p_targets = v_batch.low.values, p_batch.low.values
        else:
            v_targets = _target_rows([t for vt, _ in reconstruction_targets for t in vt])
            p_targets = _target_rows([t for _, pt in reconstruction_targets for t in pt])
        v_rec = _batch_reconstruct(
            params, v_batch, [v.clips for v, _ in batch], v_targets, "video"
        )
        p_rec = _batch_reconstruct(
            params, p_batch, [p.sentences for _, p in batch], p_targets, "text"
        )
        rec = tk.mul_scalar(tk.add(v_rec, p_rec), norm)
    else:
        rec = tk.constant(0.0)

    total = tk.add(
        tk.add(tk.add(tk.add(mh, ml), ch), cl),
        tk.mul_scalar(rec, config.tau),
    )
    return LossBreakdown(
        match_high=mh.item(),
        match_low=ml.item(),
        cluster_high=ch.item(),
        cluster_low=cl.item(),
        reconstruct=rec.item(),
        total=total.item(),
        node=total,
    )
