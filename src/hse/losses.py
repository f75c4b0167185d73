"""Training objectives: cosine matching, ranking and clustering losses,
layer-wise reconstruction, weak-correspondence approximation, and the
combined objective, which compose_objective sums from the unnormalized
heads into a LossBreakdown (whose fields name the components).

Embeddings arrive as matrices, one row per item, in the EncodedBatch that
encode_batch returns for each modality: total_loss encodes the videos and
the paragraphs of a batch in one call, one paired GRU run per level, and
decodes both in one decode_batch call when tau > 0. Videos and paragraphs
come as [K, E], the clips (sentences) of a batch as [N, E], pair after
pair, counts[k] of those rows belonging to pair k. The same record carries
the lengths and the padded input units that reconstruction compares
against, so nothing is padded twice. Every similarity matrix is one
tensorkit.cosine over two of them.

Sign convention. The ranking and clustering losses are the standard
triplet hinges. For a batch of K aligned pairs the high-level matching term
is

    sum_k sum_{k'!=k} [a + match(v_k', p_k) - match(v_k, p_k)]_+
                    + [a + match(v_k, p_k') - match(v_k, p_k)]_+

so minimizing pulls matched pairs together and pushes in-batch negatives at
least a margin below them. The clustering term penalizes distinct
same-modality items whose similarity exceeds 1 - margin:
[margin + match(x', x) - 1]_+. The paper prints each hinge with the
opposite sign placement; minimizing that copy would push every aligned
pair below its negatives, so it is not offered.

Here match(u, w) is the cosine similarity u.w / (|u||w|). All ranking
losses share one kernel over a K x K similarity matrix,
tensorkit.rank_hinge, so the weak-correspondence loss is by construction
the high-level matching loss applied to the matrix of averaged
clip/sentence similarities. The clustering losses share
tensorkit.cluster_hinge and the reconstruction errors
tensorkit.weighted_sq_err: one tape record per loss head.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import tensorkit as tk
from .errors import ConfigError, ContractError, ShapeError
from .model import DecodedBatch, HseModelParams, decode_batch, encode_batch
from .tensorkit import Tensor

__all__ = [
    "LossConfig",
    "LossBreakdown",
    "loss_match_high",
    "loss_match_low",
    "loss_cluster_high",
    "loss_cluster_low",
    "loss_reconstruct",
    "loss_match_low_weak",
    "total_loss",
]

CORRESPONDENCE_MODES = ("strong", "weak", "none")


@dataclass
class LossConfig:
    """Margins, reconstruction weight and correspondence mode of the objective."""

    alpha: float = 0.2
    beta: float = 0.2
    gamma: float = 0.2
    eta: float = 0.2
    beta_prime: float = 0.2
    tau: float = 5e-4
    correspondence: str = "strong"  # strong | weak | none (none drops the low-level terms)

    def validate(self) -> None:
        # each range is checked as "not lo < x < inf", which NaN and the
        # infinities fail too
        for name in ("alpha", "beta", "gamma", "eta", "beta_prime"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"margin {name} must be finite and > 0")
        if not 0 <= self.tau < np.inf:
            raise ConfigError("tau must be finite and >= 0")
        if self.correspondence not in CORRESPONDENCE_MODES:
            raise ConfigError(f"correspondence must be one of {CORRESPONDENCE_MODES}")


@dataclass
class LossBreakdown:
    """Per-component values of one objective evaluation (already normalized
    by the batch size). total composes exactly as
    match_high + match_low + cluster_high + cluster_low + tau * reconstruct.
    The fields before node name the components, in loss-log order."""

    match_high: float
    match_low: float
    cluster_high: float
    cluster_low: float
    reconstruct: float
    total: float
    node: Tensor | None = None  # differentiable total, for backward()

    def components(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in COMPONENTS}


COMPONENTS = tuple(f.name for f in fields(LossBreakdown) if f.name != "node")


def compose_objective(
    pairs: int,
    tau: float,
    match_high: Tensor,
    cluster_high: Tensor,
    match_low: Tensor | None = None,
    cluster_low: Tensor | None = None,
    reconstruct: Tensor | None = None,
) -> LossBreakdown:
    """The LossBreakdown of a batch of pairs from its unnormalized heads,
    each divided by pairs; a head not given is 0."""
    heads = (match_high, match_low, cluster_high, cluster_low, reconstruct)
    mh, ml, ch, cl, rec = (
        Tensor(0.0) if head is None else tk.mul_scalar(head, 1.0 / pairs) for head in heads
    )
    total = tk.add(mh, ml, ch, cl, tk.mul_scalar(rec, tau))
    return LossBreakdown(*(t.item() for t in (mh, ml, ch, cl, rec, total)), node=total)


def _rows(embeddings: Tensor) -> int:
    if embeddings.values.ndim != 2:
        raise ShapeError(
            f"embeddings must be an [N, E] matrix, got shape {list(embeddings.shape)}"
        )
    return embeddings.values.shape[0]


def _check_counts(embeddings: Tensor, counts: Sequence[int], what: str) -> None:
    """counts must split the rows of embeddings into nonempty per-pair runs."""
    if not counts or min(counts) < 1 or sum(counts) != _rows(embeddings):
        raise ContractError(
            f"{what} counts {list(counts)} do not split {_rows(embeddings)} rows into "
            "nonempty per-pair runs"
        )


def loss_match_high(
    videos: Tensor,
    paragraphs: Tensor,
    alpha: float,
) -> Tensor:
    """Cross-modal ranking loss over the [K, E] whole-sample embeddings;
    row k of videos is aligned with row k of paragraphs."""
    k, m = _rows(videos), _rows(paragraphs)
    if k != m:
        raise ContractError(f"batch length mismatch: {k} videos vs {m} paragraphs")
    if not k:
        raise ContractError("loss_match_high requires a nonempty batch")
    return tk.rank_hinge(tk.cosine(videos, paragraphs), alpha)


def loss_match_low(
    clips: Tensor,
    clip_counts: Sequence[int],
    sentences: Tensor,
    sentence_counts: Sequence[int],
    beta: float,
) -> Tensor:
    """Cross-modal ranking loss over aligned clip/sentence embeddings.

    Row i of clips [N, E] must align with row i of sentences [N, E]; pair k
    owns clip_counts[k] == sentence_counts[k] consecutive rows. Negatives
    are every other row across the batch.
    """
    if len(clip_counts) != len(sentence_counts):
        raise ContractError("batch length mismatch between clips and sentences")
    for k, (n, m) in enumerate(zip(clip_counts, sentence_counts)):
        if n != m:
            raise ContractError(
                f"pair {k} has {n} clips but {m} sentences; there is no "
                "clip/sentence alignment, use loss_match_low_weak instead"
            )
    _check_counts(clips, clip_counts, "clip")
    _check_counts(sentences, sentence_counts, "sentence")
    return tk.rank_hinge(tk.cosine(clips, sentences), beta)


def _cluster_pair(a: Tensor, b: Tensor, margin: float, what: str) -> Tensor:
    """Clustering loss of the rows of a plus that of the rows of b."""
    if not _rows(a) or not _rows(b):
        raise ContractError(f"{what} requires nonempty batches")
    return tk.add(
        tk.cluster_hinge(tk.cosine(a, a), margin), tk.cluster_hinge(tk.cosine(b, b), margin)
    )


def loss_cluster_high(
    videos: Tensor,
    paragraphs: Tensor,
    gamma: float,
) -> Tensor:
    """Within-modality separation loss over the [K, E] whole-sample
    embeddings.

    For every ordered pair of distinct items, penalizes similarity above
    1 - gamma (self-similarity is 1 by definition)."""
    return _cluster_pair(videos, paragraphs, gamma, "loss_cluster_high")


def loss_cluster_low(
    clips: Tensor,
    sentences: Tensor,
    eta: float,
) -> Tensor:
    """Separation loss over the clip [N, E] and sentence [M, E] embeddings
    of a batch."""
    return _cluster_pair(clips, sentences, eta, "loss_cluster_low")


def loss_match_low_weak(
    clips: Tensor,
    clip_counts: Sequence[int],
    sentences: Tensor,
    sentence_counts: Sequence[int],
    beta_prime: float,
) -> Tensor:
    """Low-level ranking loss without clip/sentence alignment: the ranking
    kernel applied to the matrix of averaged similarities, entry (a, b) the
    mean cosine similarity over every clip of pair a and sentence of pair
    b. That matrix is one similarity matrix of every clip against every
    sentence reduced by block means, each block from its own rows alone.
    Pair k owns clip_counts[k] rows of clips and sentence_counts[k] rows of
    sentences."""
    if len(clip_counts) != len(sentence_counts) or not clip_counts:
        raise ContractError("loss_match_low_weak requires a nonempty batch of pairs")
    _check_counts(clips, clip_counts, "clip")
    _check_counts(sentences, sentence_counts, "sentence")
    sim = tk.segment_mean(tk.cosine(clips, sentences), clip_counts, sentence_counts)
    return tk.rank_hinge(sim, beta_prime)


def loss_reconstruct(
    decoded: DecodedBatch,
    low_targets: np.ndarray,
    units: np.ndarray,
) -> Tensor:
    """Squared-error reconstruction for one modality of a batch:

        sum_i { |low_hat_i - low_i|^2 + (1/n_i) sum_j |unit_hat_ij - unit_ij|^2 }

    over its clips (sentences) i, n_i = decoded.lengths[i]: decoded is one of
    decode_batch's results, low_targets the [N, E] encoder embeddings and units
    the [N, T, D] padded clips (sentences) of EncodedBatch.units. Targets are
    constants; only the decoded branch gets gradients. Add both modalities.
    """
    low_targets = np.asarray(low_targets, dtype=np.float64)
    want = (len(decoded.lengths), decoded.steps)
    if units.ndim != 3 or units.shape[:2] != want or low_targets.shape != decoded.low.values.shape:
        raise ContractError(
            f"reconstruction targets ({list(low_targets.shape)}, units {list(units.shape)}) differ "
            f"from the decoded batch ({list(decoded.low.shape)}, units {list(want)} x features)"
        )
    n_i = np.asarray(decoded.lengths)[:, None]
    row_weights = (np.arange(decoded.steps)[None, :] < n_i) / n_i  # 1/n_i, 0 on padding
    unit_targets = units.reshape(-1, units.shape[2])
    weights = np.broadcast_to(row_weights.reshape(-1, 1), unit_targets.shape)
    return tk.add(
        tk.weighted_sq_err(decoded.low, low_targets),
        tk.weighted_sq_err(decoded.units, unit_targets, weights),
    )


def total_loss(
    batch: Sequence[tuple],
    params: HseModelParams,
    config: LossConfig,
    reconstruction_targets: tuple[np.ndarray, np.ndarray] | None = None,
) -> LossBreakdown:
    """Evaluate the full objective on a batch of (video, paragraph) pairs.

    Every component is normalized by the number of pairs K. Decoding is
    skipped entirely when tau == 0. The returned breakdown's node field is
    the differentiable total.

    reconstruction_targets optionally supplies the (clip [N, E], sentence
    [M, E]) embedding targets of the whole batch, pair by pair; by default
    the current encoder outputs are the targets. Either way targets are
    constants with no gradient, so finite-difference verification of this
    objective must hold them fixed.
    """
    config.validate()
    if not batch:
        raise ContractError("total_loss requires a nonempty batch")
    v, p = encode_batch(params, [video for video, _ in batch], [paragraph for _, paragraph in batch])

    # the heads run in this order: shared embeddings accumulate gradients in
    # reverse tape order, so another order would change trained bits
    mh = loss_match_high(v.high, p.high, config.alpha)
    ch = loss_cluster_high(v.high, p.high, config.gamma)
    ml = cl = rec = None
    if config.correspondence != "none":
        if config.correspondence == "strong":
            ml = loss_match_low(v.low, v.counts, p.low, p.counts, config.beta)
        else:
            ml = loss_match_low_weak(v.low, v.counts, p.low, p.counts, config.beta_prime)
        cl = loss_cluster_low(v.low, p.low, config.eta)
    if config.tau > 0.0:
        if reconstruction_targets is None:
            reconstruction_targets = (v.low.values, p.low.values)
        v_targets, p_targets = reconstruction_targets
        v_dec, p_dec = decode_batch(
            params, (v.high, v.counts, v.lengths, "video"), (p.high, p.counts, p.lengths, "text")
        )
        rec = tk.add(
            loss_reconstruct(v_dec, v_targets, v.units), loss_reconstruct(p_dec, p_targets, p.units)
        )
    return compose_objective(len(batch), config.tau, mh, ch, ml, cl, rec)
