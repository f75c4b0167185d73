"""Parameter initialization, Adam updates, learning-rate schedule, epoch loop.

Training is a pure function of (corpus, config): pair order is shuffled by
a generator seeded from the config and gradients accumulate in tape order,
so repeated runs are bitwise identical. The weights a model kind trains are
a leading span of the model's flat buffer (HseModelParams.values); their
gradients accumulate into views of one flat buffer of the same layout, and
Adam updates the span in place with whole-buffer operations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensorkit as tk
from .data import Corpus
from .errors import ConfigError, ContractError, DegenerateInputError, TrainingDiverged
from .losses import (
    COMPONENTS,
    LossBreakdown,
    LossConfig,
    compose_objective,
    loss_cluster_high,
    loss_match_high,
    total_loss,
)
from .model import HseModelParams, ModelDims, build_params, encode_flat_batch, tile

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
    loss: LossConfig = field(default_factory=LossConfig)

    def validate(self) -> None:
        # 0 is allowed as a degenerate no-op (leaves parameters at init); NaN
        # and the infinities fail these ranges
        if not 0 <= self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and >= 0")
        if not 1 <= self.decay_factor < np.inf:
            raise ConfigError("decay_factor must be finite and >= 1")
        if self.decay_every_epochs < 1:
            raise ConfigError("decay_every_epochs must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
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
    return params


# Adam's moment decay rates and denominator offset
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class OptimizerState:
    """Adam's step count and moments m and v for a flat buffer of size
    values, plus two scratch buffers, so that an update is a handful of
    whole-buffer operations. The four buffers come from empty (np.empty, or
    a tk.Workspace's take), and the moments are zeroed here."""

    def __init__(self, size: int, empty=np.empty):
        self.step = 0
        self.m, self.v, self._denom, self._update = (empty((size,)) for _ in range(4))
        self.m.fill(0.0)
        self.v.fill(0.0)


def optimizer_step(state: OptimizerState, values: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """One bias-corrected adaptive-moment update of the flat buffer values,
    in place, from its gradient grad.

    The arithmetic is elementwise and runs in the same order as a per-tensor
    loop would (m, v, then lr * m_hat / (sqrt(v_hat) + eps)), so every
    value's update does not depend on the others, to the last bit."""
    if values.shape != state.m.shape or grad.shape != state.m.shape:
        raise ContractError(f"optimizer_step: values and gradient must have shape ({state.m.size},)")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    m, v, tmp, denom = state.m, state.v, state._update, state._denom
    m *= b1
    np.multiply(grad, 1.0 - b1, out=tmp)
    m += tmp
    v *= b2
    np.multiply(grad, 1.0 - b2, out=tmp)
    tmp *= grad
    v += tmp
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, bc1, out=tmp)
    tmp *= lr
    tmp /= denom
    values -= tmp


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    if epoch < 0:
        raise ContractError("epoch must be >= 0")
    return config.learning_rate / config.decay_factor ** (epoch // config.decay_every_epochs)


def _fse_loss(batch, params: HseModelParams, config: LossConfig) -> LossBreakdown:
    """Objective of the flat baseline: whole-sample matching and clustering
    over single-level embeddings, no low-level or reconstruction terms."""
    videos, paragraphs = encode_flat_batch(
        params, [video for video, _ in batch], [paragraph for _, paragraph in batch]
    )
    mh = loss_match_high(videos, paragraphs, config.alpha)
    ch = loss_cluster_high(videos, paragraphs, config.gamma)
    return compose_objective(len(batch), config.tau, mh, ch)


def _last_trained(config: TrainConfig) -> str:
    """The last GRU whose weights training updates, along with those of
    every GRU before it (HseModelParams.leading_parameters)."""
    if config.model == "fse":
        # enc_v_low and enc_p_low; enc_v_high between them gets no gradient,
        # so its Adam update is exactly zero
        return "enc_p_low"
    if config.loss.tau > 0.0:
        return "dec_p_low"
    # without reconstruction the decoders never run and receive no gradients
    return "enc_p_high"


def _mean_breakdown(breakdowns: Sequence[LossBreakdown]) -> LossBreakdown:
    n = len(breakdowns)
    return LossBreakdown(*(sum(getattr(bd, key) for bd in breakdowns) / n for key in COMPONENTS))


# Two tensorkit.Workspaces, kept from one train call to the next: the GRU
# kernel's, which each step's tape resets, and the call's flat gradient and
# Adam buffers, reset at the call's end. glibc can hand a buffer freed at the
# end of a call back to the OS, and the next call then faults it in afresh.
# A call made while another holds the pair makes its own. No bit depends on
# what a workspace held before.
_SPARE_WORKSPACES: list[tuple[tk.Workspace, tk.Workspace]] = []


# a diverging run overflows on its way to the checks below, which name the
# epoch and the batch; numpy's warnings of it would come first
@np.errstate(over="ignore", invalid="ignore")
def train(corpus: Corpus, config: TrainConfig) -> TrainResult:
    """Run the epoch loop and return final parameters plus per-epoch mean
    loss breakdowns. Aborts with a TrainingDiverged naming the epoch and
    batch if an embedding, a loss component or a weight goes non-finite."""
    config.validate()
    corpus.validate()
    if config.model == "hse" and config.loss.correspondence == "strong" and corpus.correspondence != "strong":
        raise ContractError(
            "strong-correspondence training needs a strong corpus; use "
            "correspondence=weak (or none) for this data"
        )
    dims = ModelDims(corpus.d_v, corpus.d_t, config.hidden_low, config.hidden_high)
    params = init_params(dims, config.seed)
    tensors = [t for _, t in params.leading_parameters(_last_trained(config))]
    values = params.values[: sum(t.values.size for t in tensors)]
    try:  # one pop, so that two calls in two threads cannot take one pair
        workspace, kept = _SPARE_WORKSPACES.pop()
    except IndexError:
        workspace, kept = tk.Workspace(), tk.Workspace()
    # backward accumulates each tensor's gradient into its view of one
    # buffer, zeroed before each step
    grad = kept.take(values.shape)
    for t, view in zip(tensors, tile(grad, [t.shape for t in tensors])):
        t.grad = view
    opt = OptimizerState(values.size, kept.take)
    rng = np.random.default_rng(config.seed)
    epoch_log: list[LossBreakdown] = []
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config, epoch)
        order = rng.permutation(len(corpus.pairs))
        breakdowns: list[LossBreakdown] = []
        for start in range(0, len(order), config.batch_size):
            at = f"epoch {epoch}, batch {start // config.batch_size}"
            batch = [corpus.pairs[i] for i in order[start : start + config.batch_size]]
            grad.fill(0.0)
            with tk.Tape(workspace):
                try:
                    if config.model == "fse":
                        bd = _fse_loss(batch, params, config.loss)
                    else:
                        bd = total_loss(batch, params, config.loss)
                except DegenerateInputError as exc:
                    raise TrainingDiverged(f"{at}: {exc}") from None
                for name, value in bd.components().items():
                    if not np.isfinite(value):
                        raise TrainingDiverged(f"{at}: loss component {name!r} is {value}")
                tk.backward(bd.node)
            optimizer_step(opt, values, grad, lr)
            if not np.isfinite(values).all():
                raise TrainingDiverged(f"{at}: the update made a weight non-finite")
            breakdowns.append(bd)
        epoch_log.append(_mean_breakdown(breakdowns))
        log.info(
            "epoch %d lr=%g total=%g", epoch, lr, epoch_log[-1].total
        )
    tk.zero_grads(tensors)
    kept.reset()
    _SPARE_WORKSPACES.append((workspace, kept))
    return TrainResult(params=params, log=epoch_log)
