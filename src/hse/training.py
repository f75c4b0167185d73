"""Parameter initialization, Adam updates, learning-rate schedule, epoch loop.

Training is a pure function of (corpus, config): pair order is shuffled by
a generator seeded from the config, gradients reduce in a fixed parameter
order, and updates are applied in that same order, so repeated runs are
bitwise identical.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensorkit as tk
from .data import Corpus
from .errors import ConfigError, ContractError, TrainingDiverged
from .losses import (
    LossBreakdown,
    LossConfig,
    loss_cluster_high,
    loss_match_high,
    total_loss,
)
from .model import HseModelParams, ModelDims, build_params, encode_flat_batch
from .tensorkit import Tensor

__all__ = [
    "TrainConfig",
    "OptimizerState",
    "TrainResult",
    "init_params",
    "optimizer_step",
    "lr_at_epoch",
    "train",
]

log = logging.getLogger("hse.training")

MODEL_KINDS = ("hse", "fse")

# weights are drawn from a zero-mean Gaussian with this variance; biases are zero
INIT_WEIGHT_STD = 0.1


@dataclass
class TrainConfig:
    """Everything the epoch loop needs besides the corpus itself."""

    learning_rate: float = 1e-3
    decay_factor: float = 10.0
    decay_every_epochs: int = 10
    epochs: int = 15
    batch_size: int = 8
    seed: int = 0
    hidden_low: int = 32
    hidden_high: int = 32
    model: str = "hse"  # hse | fse (flat single-level baseline)
    carry_low_state: bool = False
    loss: LossConfig = field(default_factory=LossConfig)

    def validate(self) -> None:
        # 0 is allowed as a degenerate no-op (leaves parameters at init)
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.decay_factor < 1:
            raise ConfigError("decay_factor must be >= 1")
        if self.decay_every_epochs < 1:
            raise ConfigError("decay_every_epochs must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.hidden_low < 1 or self.hidden_high < 1:
            raise ConfigError("hidden sizes must be >= 1")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {MODEL_KINDS}")
        self.loss.validate()


@dataclass
class TrainResult:
    params: HseModelParams
    log: list[LossBreakdown]


def init_params(dims: ModelDims, seed: int) -> HseModelParams:
    """Draw every affine weight from N(0, 0.01); biases start at zero.

    Deterministic in seed: the per-gate weights are filled in checkpoint
    order (HseModelParams.checkpoint_views), biases consuming no randomness.
    """
    rng = np.random.default_rng(seed)
    params = build_params(dims)
    for _, view in params.checkpoint_views():
        if view.ndim == 2:
            view[...] = rng.normal(0.0, INIT_WEIGHT_STD, size=view.shape)
    params.validate()
    return params


class OptimizerState:
    """Adam accumulators for a fixed, ordered parameter list.

    m and v are flat buffers over the parameters in list order, so an update
    is a handful of whole-buffer operations instead of a dozen per tensor.
    """

    def __init__(self, shapes: Sequence[tuple[int, ...]], beta1=0.9, beta2=0.999, eps=1e-8):
        self.shapes = [tuple(s) for s in shapes]
        sizes = [math.prod(s) for s in self.shapes]
        self.m = np.zeros(sum(sizes))
        self.v = np.zeros(sum(sizes))
        self.step = 0
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        # the gradients are copied into _grad, which then serves as scratch;
        # _update holds the step, seen per parameter through _update_views
        self._grad = np.empty_like(self.m)
        self._update = np.empty_like(self.m)
        ends = np.cumsum(sizes, dtype=np.intp)
        self._update_views = [
            self._update[end - size : end].reshape(shape)
            for shape, size, end in zip(self.shapes, sizes, ends)
        ]

    @classmethod
    def for_params(cls, params: Sequence[Tensor]) -> "OptimizerState":
        return cls([p.values.shape for p in params])


def optimizer_step(
    state: OptimizerState,
    params: Sequence[Tensor],
    grads: Sequence[np.ndarray | None],
    lr: float,
) -> None:
    """One bias-corrected adaptive-moment update.

    The arithmetic is elementwise and runs in the same order as a per-tensor
    loop would (m, v, then lr * m_hat / (sqrt(v_hat) + eps)), so every
    parameter's update does not depend on the others, to the last bit."""
    shapes = state.shapes
    if len(params) != len(shapes) or len(grads) != len(shapes):
        raise ContractError("optimizer_step: parameter, gradient, and state counts differ")
    if [p.values.shape for p in params] != shapes:
        raise ContractError("optimizer_step: parameter shapes differ from the state's")
    for i, g in enumerate(grads):
        if g is None:
            raise ContractError(f"optimizer_step: missing gradient for parameter {i}")
        if g.shape != shapes[i]:
            raise ContractError(f"optimizer_step: gradient {i} has the wrong shape")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    g, tmp, m, v = state._grad, state._update, state.m, state.v
    if shapes:
        np.concatenate([x.ravel() for x in grads], out=g)
    m *= b1
    np.multiply(g, 1.0 - b1, out=tmp)
    m += tmp
    v *= b2
    np.multiply(g, 1.0 - b2, out=tmp)
    tmp *= g
    v += tmp
    # the gradient is spent; g now holds the denominator
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += state.eps
    np.divide(m, bc1, out=tmp)
    tmp *= lr
    tmp /= g
    for p, update in zip(params, state._update_views):
        p.values -= update


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    if epoch < 0:
        raise ContractError("epoch must be >= 0")
    return config.learning_rate / config.decay_factor ** (epoch // config.decay_every_epochs)


def _fse_loss(batch, params: HseModelParams, config: LossConfig) -> LossBreakdown:
    """Objective of the flat baseline: whole-sample matching and clustering
    over single-level embeddings, no low-level or reconstruction terms."""
    videos = encode_flat_batch(params.enc_v_low, [video for video, _ in batch])
    paragraphs = encode_flat_batch(params.enc_p_low, [paragraph for _, paragraph in batch])
    norm = 1.0 / len(batch)
    mh = tk.mul_scalar(loss_match_high(videos, paragraphs, config.alpha, config.sign_mode), norm)
    ch = tk.mul_scalar(
        loss_cluster_high(videos, paragraphs, config.gamma, config.sign_mode), norm
    )
    total = tk.add(mh, ch)
    return LossBreakdown(
        match_high=mh.item(),
        match_low=0.0,
        cluster_high=ch.item(),
        cluster_low=0.0,
        reconstruct=0.0,
        total=total.item(),
        node=total,
    )


def _trainable(params: HseModelParams, config: TrainConfig) -> list[tuple[str, Tensor]]:
    if config.model == "fse":
        return params.flat_encoder_parameters()
    if config.loss.tau > 0.0:
        return params.named_parameters()
    # without reconstruction the decoders never run and receive no gradients
    return params.encoder_parameters()


def _mean_breakdown(batch_breakdowns: Sequence[LossBreakdown]) -> LossBreakdown:
    n = len(batch_breakdowns)
    mean = {
        key: sum(bd.components()[key] for bd in batch_breakdowns) / n
        for key in ("match_high", "match_low", "cluster_high", "cluster_low", "reconstruct", "total")
    }
    return LossBreakdown(node=None, **mean)


def train(corpus: Corpus, config: TrainConfig) -> TrainResult:
    """Run the epoch loop and return final parameters plus per-epoch mean
    loss breakdowns. Aborts with a diagnostic if any component goes
    non-finite."""
    config.validate()
    corpus.validate()
    if config.model == "hse" and config.loss.correspondence == "strong" and corpus.correspondence != "strong":
        raise ContractError(
            "strong-correspondence training needs a strong corpus; use "
            "correspondence=weak (or none) for this data"
        )
    dims = ModelDims(
        d_v=corpus.d_v,
        d_t=corpus.d_t,
        hidden_low=config.hidden_low,
        hidden_high=config.hidden_high,
    )
    params = init_params(dims, config.seed)
    trainable = _trainable(params, config)
    tensors = [t for _, t in trainable]
    opt = OptimizerState.for_params(tensors)
    rng = np.random.default_rng(config.seed)
    epoch_log: list[LossBreakdown] = []
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config, epoch)
        order = rng.permutation(len(corpus.pairs))
        breakdowns: list[LossBreakdown] = []
        for start in range(0, len(order), config.batch_size):
            batch = [corpus.pairs[i] for i in order[start : start + config.batch_size]]
            tk.zero_grads(tensors)
            with tk.Tape():
                if config.model == "fse":
                    bd = _fse_loss(batch, params, config.loss)
                else:
                    bd = total_loss(batch, params, config.loss, config.carry_low_state)
                for name, value in bd.components().items():
                    if not np.isfinite(value):
                        raise TrainingDiverged(
                            f"epoch {epoch}: loss component {name!r} is {value}"
                        )
                tk.backward(bd.node)
            optimizer_step(opt, tensors, [t.grad for t in tensors], lr)
            breakdowns.append(bd)
        epoch_log.append(_mean_breakdown(breakdowns))
        log.info(
            "epoch %d lr=%g total=%g", epoch, lr, epoch_log[-1].total
        )
    tk.zero_grads(tensors)
    return TrainResult(params=params, log=epoch_log)
