"""Finite-difference verification: the checker and its suites for losses,
encoders, and decoders.

finite_diff_check compares a scalar objective's tape gradients with
central differences, coordinate by coordinate. Each trial of a suite
draws a random configuration (dimensions <= 8, batches <= 4, sequence
lengths <= 5), evaluates one objective, and checks it. Embedding-level
losses are checked over every input coordinate; the full pipeline
objective samples a few coordinates per parameter tensor to stay fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import losses, tensorkit as tk
from .data import ParagraphSample, VideoSample
from .errors import ContractError
from .model import ModelDims, decode_batch, encode_batch, pad_sequences
from .tensorkit import Tape, Tensor, backward, zero_grads
from .training import init_params

__all__ = ["SuiteResult", "run_gradient_suite", "GRADCHECK_COMPONENTS"]

GRADCHECK_COMPONENTS = (
    "loss_match_high",
    "loss_match_low",
    "loss_cluster_high",
    "loss_cluster_low",
    "loss_match_low_weak",
    "loss_reconstruct",
    "total_loss",
    "encoder",
    "decoder",
)


# the largest floored relative error between a tape gradient and its central
# difference that passes; a coordinate that errs more is tested for a kink
FD_TOLERANCE = 1e-4
# the perturbation of a checked coordinate, each way
FD_STEP = 1e-5


@dataclass
class FiniteDiffReport:
    """Result of comparing analytic gradients against central differences."""

    max_rel_err: float
    n_checked: int
    n_skipped_nondifferentiable: int


def _rel_err(a: float, n: float, floor: float) -> float:
    return abs(a - n) / max(floor, abs(a) + abs(n))


def finite_diff_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
    coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> FiniteDiffReport:
    """Compare analytic gradients of scalar f(params) with central differences.

    Each checked coordinate is perturbed by +/-FD_STEP; the central-difference
    quotient is compared with the tape gradient via a floored relative
    error. The denominator floor scales with |f| because the quotient's
    rounding noise does too; coordinates whose gradients sit below that
    noise are vacuously fine. Coordinates where the one-sided quotients
    disagree strongly lie on a hinge/max kink where the derivative is not
    defined; they are skipped and counted instead of reported as failures
    (a genuinely wrong gradient produces matching one-sided quotients and
    still fails).

    coords_per_param limits the check to a random subset per parameter,
    for use on expensive full-pipeline objectives.
    """
    params = list(params)
    for p in params:
        if not p.requires_grad:
            raise ContractError("all checked parameters must have requires_grad set")
    zero_grads(params)
    with Tape():
        loss = f(params)
        if loss.requires_grad:
            backward(loss)
        # a loss not touching any parameter has an all-zero gradient
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.values) for p in params]
    zero_grads(params)

    def eval_f() -> float:
        out = f(params)
        return float(out.values.reshape(()))

    if rng is None:
        rng = np.random.default_rng(0)

    f_mid = eval_f()
    floor = 1e-6 * max(1.0, abs(f_mid))
    max_err = 0.0
    n_checked = 0
    n_skipped = 0
    for p, a_grad in zip(params, analytic):
        flat = p.values.reshape(-1)
        a_flat = a_grad.reshape(-1)
        size = flat.size
        if coords_per_param is not None and coords_per_param < size:
            coords = np.sort(rng.choice(size, size=coords_per_param, replace=False))
        else:
            coords = range(size)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + FD_STEP
            f_plus = eval_f()
            flat[idx] = orig - FD_STEP
            f_minus = eval_f()
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            err = _rel_err(a_flat[idx], numeric, floor)
            if err >= FD_TOLERANCE:
                # split test: disagreeing one-sided quotients mean the
                # objective is locally nondifferentiable at this coordinate
                right = (f_plus - f_mid) / FD_STEP
                left = (f_mid - f_minus) / FD_STEP
                if abs(right - left) / max(1.0, abs(right), abs(left)) > 1e-3:
                    n_skipped += 1
                    continue
            n_checked += 1
            if err > max_err:
                max_err = err
    return FiniteDiffReport(
        max_rel_err=max_err,
        n_checked=n_checked,
        n_skipped_nondifferentiable=n_skipped,
    )


@dataclass
class SuiteResult:
    component: str
    trials: int
    max_rel_err: float
    n_checked: int
    n_skipped_nondifferentiable: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < FD_TOLERANCE


def _leaf(rng, size) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0, size=size), requires_grad=True)


def _embedding_batch(rng) -> tuple[Tensor, Tensor]:
    k = int(rng.integers(2, 5))
    d = int(rng.integers(2, 9))
    return _leaf(rng, (k, d)), _leaf(rng, (k, d))


def _nested_batch(rng, aligned: bool) -> tuple[Tensor, list[int], Tensor, list[int]]:
    """Clip and sentence embedding matrices with their per-pair counts."""
    k = int(rng.integers(2, 4))
    d = int(rng.integers(2, 7))
    clips: list[np.ndarray] = []
    sents: list[np.ndarray] = []
    for _ in range(k):
        n = int(rng.integers(1, 4))
        m = n if aligned else int(rng.integers(1, 4))
        clips.append(rng.normal(0.0, 1.0, size=(n, d)))
        sents.append(rng.normal(0.0, 1.0, size=(m, d)))
    return (
        Tensor(np.concatenate(clips), requires_grad=True),
        [len(c) for c in clips],
        Tensor(np.concatenate(sents), requires_grad=True),
        [len(s) for s in sents],
    )


def _random_pair(rng, d_v: int, d_t: int, max_units=3, max_len=4):
    n = int(rng.integers(1, max_units + 1))
    clips = [
        rng.normal(0.0, 1.0, size=(int(rng.integers(1, max_len + 1)), d_v)) for _ in range(n)
    ]
    sentences = [
        rng.normal(0.0, 1.0, size=(int(rng.integers(1, max_len + 1)), d_t)) for _ in range(n)
    ]
    return VideoSample("v", clips), ParagraphSample("p", sentences)


def _weighted_sum(x: Tensor, weights=1.0) -> Tensor:
    """sum(x * weights), for constant weights of x's size (or one for all),
    as two affine records over x flattened to a row: the products, each
    alone in its column of a diagonal matrix so that BLAS fuses none of them
    into an addition, then their sum."""
    n = x.values.size
    row = tk.reshape(x, (1, n))
    products = tk.affine(row, Tensor(np.diag(np.broadcast_to(weights, n))), Tensor(np.zeros(n)))
    return tk.affine(products, Tensor(np.ones((1, n))), Tensor(np.zeros(1)))


def _trial(component: str, rng: np.random.Generator) -> FiniteDiffReport:
    margin = 0.2
    if component in ("loss_match_high", "loss_cluster_high"):
        loss = getattr(losses, component)

        def f(ps):
            return loss(ps[0], ps[1], margin)

        return finite_diff_check(f, list(_embedding_batch(rng)))

    if component in ("loss_match_low", "loss_cluster_low", "loss_match_low_weak"):
        aligned = component != "loss_match_low_weak"
        clips, clip_counts, sents, sent_counts = _nested_batch(rng, aligned)

        def f(ps):
            if component == "loss_cluster_low":
                return losses.loss_cluster_low(ps[0], ps[1], margin)
            loss = losses.loss_match_low if aligned else losses.loss_match_low_weak
            return loss(ps[0], clip_counts, ps[1], sent_counts, margin)

        return finite_diff_check(f, [clips, sents])

    if component == "loss_reconstruct":
        d_v = int(rng.integers(2, 6))
        hid = int(rng.integers(2, 6))
        dims = ModelDims(d_v=d_v, d_t=d_v, hidden_low=hid, hidden_high=hid)
        model = init_params(dims, int(rng.integers(0, 2**31)))
        video, _ = _random_pair(rng, d_v, d_v)
        target_low = rng.normal(0.0, 1.0, size=(video.n, hid))
        high = Tensor(rng.normal(0.0, 1.0, size=(1, hid)))
        units, _ = pad_sequences(video.clips)
        dec_params = [t for name, t in model.named_parameters() if name.startswith("dec_v_")]

        def f(ps):
            (decoded,) = decode_batch(model, (high, [video.n], video.n_i, "video"))
            return losses.loss_reconstruct(decoded, target_low, units)

        return finite_diff_check(f, dec_params)

    if component == "total_loss":
        d_v = int(rng.integers(2, 5))
        d_t = int(rng.integers(2, 5))
        hid = int(rng.integers(2, 5))
        dims = ModelDims(d_v=d_v, d_t=d_t, hidden_low=hid, hidden_high=hid)
        model = init_params(dims, int(rng.integers(0, 2**31)))
        k = int(rng.integers(2, 4))
        batch = [_random_pair(rng, d_v, d_t) for _ in range(k)]
        correspondence = "strong" if rng.random() < 0.5 else "weak"
        cfg = losses.LossConfig(tau=0.01, correspondence=correspondence)
        params = [t for _, t in model.named_parameters()]
        # reconstruction targets carry no gradient, so the differenced
        # function must hold them fixed at the evaluation point
        frozen = tuple(
            encoded.low.values
            for encoded in encode_batch(model, [video for video, _ in batch], [paragraph for _, paragraph in batch])
        )

        def f(ps):
            return losses.total_loss(batch, model, cfg, reconstruction_targets=frozen).node

        return finite_diff_check(
            f, params, coords_per_param=4, rng=np.random.default_rng(rng.integers(0, 2**31))
        )

    if component == "encoder":
        d_v = int(rng.integers(2, 6))
        hid = int(rng.integers(2, 6))
        dims = ModelDims(d_v=d_v, d_t=d_v, hidden_low=hid, hidden_high=hid)
        model = init_params(dims, int(rng.integers(0, 2**31)))
        video, _ = _random_pair(rng, d_v, d_v)
        weight = rng.normal(0.0, 1.0, size=hid)
        enc_params = [t for name, t in model.named_parameters() if name.startswith("enc_v_")]

        def f(ps):
            return _weighted_sum(encode_batch(model, [video])[0].high, weight)

        return finite_diff_check(f, enc_params)

    if component == "decoder":
        hid = int(rng.integers(2, 6))
        d_v = int(rng.integers(2, 6))
        dims = ModelDims(d_v=d_v, d_t=d_v, hidden_low=hid, hidden_high=hid)
        model = init_params(dims, int(rng.integers(0, 2**31)))
        n = int(rng.integers(1, 4))
        n_i = [int(rng.integers(1, 4)) for _ in range(n)]
        high = Tensor(rng.normal(0.0, 1.0, size=(1, hid)))
        dec_params = [t for name, t in model.named_parameters() if name.startswith("dec_v_")]
        steps = max(n_i)
        generated = [i * steps + j for i, count in enumerate(n_i) for j in range(count)]

        def f(ps):
            (decoded,) = decode_batch(model, (high, [n], n_i, "video"))
            return tk.add(_weighted_sum(decoded.low), _weighted_sum(tk.take(decoded.units, generated)))

        return finite_diff_check(f, dec_params)

    raise ContractError(f"unknown gradcheck component {component!r}")


def run_gradient_suite(seed: int = 0, trials_per_component: int = 16) -> list[SuiteResult]:
    """Run every component's trials and aggregate the worst relative error."""
    if trials_per_component < 1:
        raise ContractError(f"trials_per_component must be >= 1, got {trials_per_component}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    results = []
    for ci, component in enumerate(GRADCHECK_COMPONENTS):
        worst = 0.0
        checked = 0
        skipped = 0
        for t in range(trials_per_component):
            rng = np.random.default_rng(seed * 100_003 + ci * 7919 + t)
            report = _trial(component, rng)
            worst = max(worst, report.max_rel_err)
            checked += report.n_checked
            skipped += report.n_skipped_nondifferentiable
        results.append(
            SuiteResult(
                component=component,
                trials=trials_per_component,
                max_rel_err=worst,
                n_checked=checked,
                n_skipped_nondifferentiable=skipped,
            )
        )
    return results
