"""Minimal dense-tensor kernel with reverse-mode differentiation.

Operations execute eagerly on 64-bit numpy arrays. While a Tape is
active, every primitive whose output depends on a gradient-bearing
tensor appends a backward closure to the tape. backward() replays the
closures in reverse execution order, which is a valid reverse
topological order because records are appended as operations run.
Tapes are single use; build a fresh one per optimization step.

Broadcasting is deliberately restricted to elementwise same-shape
operands (plus scalar constants). Sequences are batched by padding:
gru_sequence runs a GRU over a padded [B, T, D] batch with per-row
lengths and records the whole run as one tape record, masked_max pools
it over the valid steps, and take gathers rows, so a model layer can
encode a whole batch with a handful of records. gru_sequence orders the
rows longest first and runs each step over the rows still running only,
and masked_max takes a plain masked maximum when nothing will record it.
Neither changes a row's bits, which do not depend on the batch or on the
row's place in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "constant",
    "matmul",
    "add",
    "sub",
    "mul",
    "div",
    "sigmoid",
    "tanh",
    "relu_hinge",
    "square",
    "sqrt",
    "add_scalar",
    "mul_scalar",
    "stack",
    "transpose",
    "reshape",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "take",
    "cosine",
    "segment_mean",
    "gru_sequence",
    "masked_max",
    "zero_grads",
    "finite_diff_check",
    "FiniteDiffReport",
]


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("values", "requires_grad", "grad", "tape")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {list(self.shape)}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


class Tape:
    """Ordered record of the primitives applied during one forward pass.

    Usable as a context manager; the innermost active tape receives the
    records. A tape may be replayed (via backward) at most once.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._used = False

    def __len__(self) -> int:
        return len(self._records)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise ContractError("tape context exited out of order")
        return False


_TAPE_STACK: list[Tape] = []

# recorded outputs point here once their tape is replayed (see backward)
_SPENT_TAPE = Tape()
_SPENT_TAPE._used = True


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(out: Tensor, back: Callable[[np.ndarray], None]) -> None:
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        out.tape = tape
        tape._records.append((out, back))


def _acc(t: Tensor, g) -> None:
    if t.requires_grad:
        if t.grad is None:
            # copy: g may be a broadcast view or caller-owned buffer
            t.grad = np.array(g, dtype=np.float64)
            if t.grad.shape != t.values.shape:
                t.grad = np.broadcast_to(t.grad, t.values.shape).copy()
        else:
            t.grad += g


def backward(loss: Tensor) -> None:
    """Populate dLoss/dLeaf on every gradient-bearing tensor in the graph.

    The loss must be a scalar produced while a tape was active, and that
    tape must not have been replayed before.
    """
    if loss.values.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {list(loss.shape)}")
    tape = loss.tape
    if tape is None:
        if not loss.requires_grad:
            raise ContractError("loss does not depend on any gradient-bearing tensor")
        raise ContractError("loss was not produced while a tape was active")
    if tape._used:
        raise ContractError("tape already replayed; tapes are single use")
    tape._used = True
    loss.grad = np.ones_like(loss.values)
    for out, back in reversed(tape._records):
        g = out.grad
        if g is None:
            continue
        back(g)
    # Each output references its tape, which references the output: a
    # reference cycle that would keep the whole graph alive until a garbage
    # collection. Re-pointing the outputs at a shared spent tape frees the
    # graph as soon as the caller drops the tape.
    for out, _ in tape._records:
        out.tape = _SPENT_TAPE


def zero_grads(tensors: Sequence[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.ndim == 2 and bv.ndim == 2:
        if av.shape[1] != bv.shape[0]:
            raise ShapeError(f"matmul dimension mismatch: {list(av.shape)} x {list(bv.shape)}")
    elif av.ndim == 2 and bv.ndim == 1:
        if av.shape[1] != bv.shape[0]:
            raise ShapeError(f"matmul dimension mismatch: {list(av.shape)} x {list(bv.shape)}")
    else:
        raise ShapeError(
            f"matmul supports 2-d x 2-d or 2-d x 1-d operands, got {av.ndim}-d x {bv.ndim}-d"
        )
    out = Tensor(av @ bv, requires_grad=a.requires_grad or b.requires_grad)

    def back(g):
        if bv.ndim == 1:
            _acc(a, np.outer(g, bv))
            _acc(b, av.T @ g)
        else:
            _acc(a, g @ bv.T)
            _acc(b, av.T @ g)

    _record(out, back)
    return out


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose expects a 2-d tensor, got shape {list(a.shape)}")
    out = Tensor(a.values.T.copy(), requires_grad=a.requires_grad)

    def back(g):
        _acc(a, g.T)

    _record(out, back)
    return out


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.values.size:
        raise ShapeError(f"cannot reshape {list(a.shape)} into {list(shape)}")
    out = Tensor(a.values.reshape(shape), requires_grad=a.requires_grad)
    old_shape = a.values.shape

    def back(g):
        _acc(a, g.reshape(old_shape))

    _record(out, back)
    return out


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Stack same-shape tensors along a new leading axis."""
    if not parts:
        raise ContractError("stack needs at least one tensor")
    first = parts[0].values.shape
    for p in parts[1:]:
        if p.values.shape != first:
            raise ShapeError(f"stack shape mismatch: {list(first)} vs {list(p.values.shape)}")
    out = Tensor(
        np.stack([p.values for p in parts]),
        requires_grad=any(p.requires_grad for p in parts),
    )

    def back(g):
        for i, p in enumerate(parts):
            _acc(p, g[i])

    _record(out, back)
    return out


def _binary(a: Tensor, b: Tensor, op: str) -> tuple[np.ndarray, np.ndarray]:
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        raise ShapeError(f"{op} shape mismatch: {list(av.shape)} vs {list(bv.shape)}")
    return av, bv


def add(a: Tensor, b: Tensor) -> Tensor:
    av, bv = _binary(a, b, "add")
    out = Tensor(av + bv, requires_grad=a.requires_grad or b.requires_grad)

    def back(g):
        _acc(a, g)
        _acc(b, g)

    _record(out, back)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    av, bv = _binary(a, b, "sub")
    out = Tensor(av - bv, requires_grad=a.requires_grad or b.requires_grad)

    def back(g):
        _acc(a, g)
        _acc(b, -g)

    _record(out, back)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = _binary(a, b, "mul")
    out = Tensor(av * bv, requires_grad=a.requires_grad or b.requires_grad)

    def back(g):
        _acc(a, g * bv)
        _acc(b, g * av)

    _record(out, back)
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    av, bv = _binary(a, b, "div")
    out = Tensor(av / bv, requires_grad=a.requires_grad or b.requires_grad)

    def back(g):
        _acc(a, g / bv)
        _acc(b, -g * av / (bv * bv))

    _record(out, back)
    return out


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.values + c, requires_grad=a.requires_grad)

    def back(g):
        _acc(a, g)

    _record(out, back)
    return out


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.values * c, requires_grad=a.requires_grad)

    def back(g):
        _acc(a, g * c)

    _record(out, back)
    return out


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-v))


def sigmoid(a: Tensor) -> Tensor:
    ov = _sigmoid(a.values)
    out = Tensor(ov, requires_grad=a.requires_grad)

    def back(g):
        _acc(a, g * ov * (1.0 - ov))

    _record(out, back)
    return out


def tanh(a: Tensor) -> Tensor:
    ov = np.tanh(a.values)
    out = Tensor(ov, requires_grad=a.requires_grad)

    def back(g):
        _acc(a, g * (1.0 - ov * ov))

    _record(out, back)
    return out


def relu_hinge(a: Tensor) -> Tensor:
    """Elementwise max(x, 0); gradient is 0 at the kink."""
    av = a.values
    out = Tensor(np.maximum(av, 0.0), requires_grad=a.requires_grad)

    def back(g):
        _acc(a, g * (av > 0.0))

    _record(out, back)
    return out


def square(a: Tensor) -> Tensor:
    av = a.values
    out = Tensor(av * av, requires_grad=a.requires_grad)

    def back(g):
        _acc(a, g * 2.0 * av)

    _record(out, back)
    return out


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.values < 0.0):
        raise DegenerateInputError("sqrt of a negative value")
    ov = np.sqrt(a.values)
    out = Tensor(ov, requires_grad=a.requires_grad)

    def back(g):
        _acc(a, g * 0.5 / ov)

    _record(out, back)
    return out


def _check_axis(a: Tensor, axis: int, op: str) -> int:
    rank = a.values.ndim
    if not -rank <= axis < rank:
        raise ShapeError(f"{op} axis {axis} out of range for rank {rank}")
    return axis % rank if rank else 0


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        out = Tensor(np.sum(a.values), requires_grad=a.requires_grad)

        def back(g):
            _acc(a, np.broadcast_to(g, a.values.shape))

    else:
        axis = _check_axis(a, axis, "sum")
        out = Tensor(np.sum(a.values, axis=axis), requires_grad=a.requires_grad)

        def back(g):
            _acc(a, np.broadcast_to(np.expand_dims(g, axis), a.values.shape))

    _record(out, back)
    return out


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        n = a.values.size
        out = Tensor(np.mean(a.values), requires_grad=a.requires_grad)

        def back(g):
            _acc(a, np.broadcast_to(g / n, a.values.shape))

    else:
        axis = _check_axis(a, axis, "mean")
        n = a.values.shape[axis]
        out = Tensor(np.mean(a.values, axis=axis), requires_grad=a.requires_grad)

        def back(g):
            _acc(a, np.broadcast_to(np.expand_dims(g / n, axis), a.values.shape))

    _record(out, back)
    return out


def reduce_max(a: Tensor, axis: int) -> Tensor:
    """Max along one axis; gradient flows to the first attaining index."""
    if axis is None:
        raise ContractError("max_over_axis requires an explicit axis")
    axis = _check_axis(a, axis, "max_over_axis")
    av = a.values
    out = Tensor(np.max(av, axis=axis), requires_grad=a.requires_grad)
    idx = np.argmax(av, axis=axis)  # argmax returns the first maximal index

    def back(g):
        buf = np.zeros_like(av)
        np.put_along_axis(buf, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        _acc(a, buf)

    _record(out, back)
    return out


def take(a: Tensor, index) -> Tensor:
    """Rows of a picked along axis 0 by an int or an int array (any shape);
    the result has shape index.shape + a.shape[1:]. Repeated rows receive
    the sum of their gradients."""
    n = a.values.shape[0] if a.values.ndim else 0
    idx = np.asarray(index, dtype=np.intp)
    if n == 0 or idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"take index out of range for {n} rows")
    if idx.ndim == 0:
        idx = int(idx)
    out = Tensor(a.values[idx], requires_grad=a.requires_grad)

    def back(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.values)
        if isinstance(idx, int):
            a.grad[idx] += g
        else:
            np.add.at(a.grad, idx, g)

    _record(out, back)
    return out


def cosine(u: Tensor, w: Tensor) -> Tensor:
    """Cosine similarity of every row of u [N, D] with every row of w [M, D].

    Each entry is computed from its two rows alone (elementwise products
    summed along D), so it does not depend on the other rows or on the
    rows' positions, to the last bit."""
    uv, wv = u.values, w.values
    if uv.ndim != 2 or wv.ndim != 2 or uv.shape[1] != wv.shape[1]:
        raise ShapeError(
            f"cosine needs [N, D] and [M, D] operands, got {list(uv.shape)} and {list(wv.shape)}"
        )
    nu = np.sqrt(np.sum(uv * uv, axis=1))
    nw = np.sqrt(np.sum(wv * wv, axis=1))
    if np.any(nu == 0.0) or np.any(nw == 0.0):
        raise DegenerateInputError("zero-norm embedding in similarity computation")
    norms = nu[:, None] * nw[None, :]
    ov = np.sum(uv[:, None, :] * wv[None, :, :], axis=2) / norms
    out = Tensor(ov, requires_grad=u.requires_grad or w.requires_grad)

    def back(g):
        gn = g / norms
        if u.requires_grad:
            _acc(u, gn @ wv - (np.sum(g * ov, axis=1) / (nu * nu))[:, None] * uv)
        if w.requires_grad:
            _acc(w, gn.T @ uv - (np.sum(g * ov, axis=0) / (nw * nw))[:, None] * wv)

    _record(out, back)
    return out


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts)[:-1]))


def segment_mean(a: Tensor, row_counts: Sequence[int], col_counts: Sequence[int]) -> Tensor:
    """Block means of a 2-d tensor: rows split into consecutive segments of
    row_counts, columns into segments of col_counts; entry (p, q) is the mean
    of block (p, q). Each block is summed on its own, so its mean does not
    depend on where the block sits."""
    rows = np.asarray(row_counts, dtype=np.intp)
    cols = np.asarray(col_counts, dtype=np.intp)
    av = a.values
    if (
        av.ndim != 2 or rows.ndim != 1 or cols.ndim != 1 or not rows.size or not cols.size
        or rows.min() < 1 or cols.min() < 1 or (rows.sum(), cols.sum()) != av.shape
    ):
        raise ShapeError(
            f"segment_mean: segments {rows.tolist()} x {cols.tolist()} "
            f"do not tile shape {list(av.shape)}"
        )
    sizes = np.outer(rows, cols).astype(np.float64)
    sums = np.add.reduceat(np.add.reduceat(av, _offsets(cols), axis=1), _offsets(rows), axis=0)
    out = Tensor(sums / sizes, requires_grad=a.requires_grad)

    def back(g):
        _acc(a, np.repeat(np.repeat(g / sizes, rows, axis=0), cols, axis=1))

    _record(out, back)
    return out


def _rowwise(a: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """a @ wt for a C-contiguous [K, N] wt, with every row of a multiplied on
    its own (a batched vector-matrix product), so a row's result is the same
    bits whatever the other rows are and wherever it sits."""
    return np.matmul(a[..., None, :], wt)[..., 0, :]


def _check_lengths(lengths, batch: int, steps: int) -> np.ndarray:
    """Per-row lengths as an int array, checked to lie in 1..steps."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (batch,) or batch and (lengths.min() < 1 or lengths.max() > steps):
        raise ShapeError(f"need {batch} lengths in 1..{steps}, got {lengths.tolist()}")
    return lengths


def _packed(v: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """The rows of v in packed order (order None: v itself)."""
    return v if order is None else v[order]


def _unpacked(v: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """Packed rows back in the caller's order (order None: v itself)."""
    if order is None:
        return v
    out = np.empty_like(v)
    out[order] = v
    return out


def gru_sequence(
    x: Tensor | None, lengths, gates: Sequence[Tensor], h0: Tensor | None = None
) -> Tensor:
    """Hidden states of a GRU run over a padded batch, recorded as one
    tape record.

    x is [B, T, D]; row b has lengths[b] valid steps (1..T) followed by
    padding. x may be None for a GRU without input (the decoders): the
    batch is then len(lengths) rows of max(lengths) steps and the input
    term is left out, and the input weights get exact zero gradients.
    gates are the nine cell tensors w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h,
    b_h (shapes [H, D], [H, H], [H]). h0 is an optional [B, H] initial
    state, zero when omitted. Returns the [B, T, H] states; at a padded
    step a row carries its state forward unchanged.

        z = sigmoid(Wz x + Uz h + bz), r = sigmoid(Wr x + Ur h + br),
        cand = tanh(Wh x + Uh (r*h) + bh), h' = (1 - z)*h + z*cand.

    The gate weights are stacked and transposed once per call into
    C-contiguous [D, 3H], [H, 2H] and [H, H] matrices: the input terms of
    all steps are one product, and a step costs two products. Rows are
    multiplied one at a time (_rowwise), so a sequence's states are the
    same bits alone or anywhere in any batch. The kernel is packed: rows
    are ordered longest first (a stable sort, skipped when the lengths
    already do not increase), so the rows still running at step t are a
    prefix and only they are computed; the others carry their state. The
    backward pass (backpropagation through time, written out by hand)
    walks the same prefixes. States and gradients are returned in the
    caller's row order.
    """
    if len(gates) != 9:
        raise ContractError(f"gru_sequence needs the 9 gate tensors, got {len(gates)}")
    w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = gates
    hid = u_z.values.shape[0] if u_z.values.ndim == 2 else -1
    if x is None:
        dim = w_z.values.shape[-1]
        bsz = np.size(lengths)
        steps = int(np.max(lengths)) if bsz else 0
    else:
        xv = x.values
        if xv.ndim != 3:
            raise ShapeError(f"gru_sequence input must be [B, T, D], got shape {list(xv.shape)}")
        bsz, steps, dim = xv.shape
    for name, t, shape in zip(
        ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h"),
        gates,
        [(hid, dim), (hid, hid), (hid,)] * 3,
    ):
        if t.values.shape != shape:
            raise ShapeError(
                f"gru_sequence {name} has shape {list(t.values.shape)}, expected {list(shape)}"
            )
    if h0 is not None and h0.values.shape != (bsz, hid):
        raise ShapeError(
            f"gru_sequence h0 has shape {list(h0.values.shape)}, expected {[bsz, hid]}"
        )
    lengths = _check_lengths(lengths, bsz, steps)
    # rows still running at each step; with the rows sorted longest first
    # they are the first active[t] rows
    active = np.count_nonzero(lengths[:, None] > np.arange(steps), axis=0).tolist()
    order = None if np.all(lengths[:-1] >= lengths[1:]) else np.argsort(-lengths, kind="stable")
    w = np.concatenate([w_z.values, w_r.values, w_h.values])
    u_zr = np.concatenate([u_z.values, u_r.values])
    u_zr_t, u_c_t = u_zr.T.copy(), u_h.values.T.copy()
    b_zr, b_c = np.concatenate([b_z.values, b_r.values]), b_h.values
    xw = None if x is None else _rowwise(_packed(xv, order), w.T.copy())
    h_init = np.zeros((bsz, hid)) if h0 is None else _packed(h0.values, order)
    parents = [p for p in (x, *gates, h0) if p is not None]
    requires_grad = any(p.requires_grad for p in parents)
    keep = requires_grad and _active_tape() is not None
    hs = np.empty((bsz, steps, hid))
    if keep:
        zs, cands = np.empty_like(hs), np.empty_like(hs)
        rs = np.zeros_like(hs)  # zero on padding, where du_c reads it
    h = h_init
    for t, n in enumerate(active):
        hp = h[:n]
        pre = _rowwise(hp, u_zr_t)
        if xw is not None:
            pre = xw[:n, t, : 2 * hid] + pre
        zr = _sigmoid(pre + b_zr)
        z, r = zr[:, :hid], zr[:, hid:]
        pre = _rowwise(r * hp, u_c_t)
        if xw is not None:
            pre = xw[:n, t, 2 * hid :] + pre
        cand = np.tanh(pre + b_c)
        h = (1.0 - z) * hp + z * cand
        hs[:n, t] = h
        if n < bsz:  # finished rows carry their state (t > 0: every row runs at step 0)
            hs[n:, t] = hs[n:, t - 1]
        if keep:
            zs[:n, t], rs[:n, t], cands[:n, t] = z, r, cand
    out = Tensor(_unpacked(hs, order), requires_grad=requires_grad)
    if not keep:
        return out
    h_prev = np.concatenate([h_init[:, None, :], hs[:, :-1]], axis=1)

    def back(g):
        g = _packed(g, order)
        da = np.zeros((bsz, steps, 3 * hid))  # gate pre-activation gradients
        dh = np.zeros((bsz, hid))
        for t in range(steps - 1, -1, -1):
            n = active[t]
            dh += g[:, t]
            z, r, cand, hp = zs[:n, t], rs[:n, t], cands[:n, t], h_prev[:n, t]
            dnew = dh[:n]
            da_t = da[:n, t]
            da_c = dnew * z * (1.0 - cand * cand)
            d_rh = da_c @ u_h.values
            da_t[:, :hid] = dnew * (cand - hp) * z * (1.0 - z)
            da_t[:, hid : 2 * hid] = d_rh * hp * r * (1.0 - r)
            da_t[:, 2 * hid :] = da_c
            dh[:n] = dnew * (1.0 - z) + d_rh * r + da_t[:, : 2 * hid] @ u_zr
        flat = da.reshape(-1, 3 * hid)
        if x is None:
            dw = np.zeros((3 * hid, dim))
        else:
            dw = flat.T @ _packed(xv, order).reshape(-1, dim)
        du_zr = flat[:, : 2 * hid].T @ h_prev.reshape(-1, hid)
        du_c = flat[:, 2 * hid :].T @ (rs * h_prev).reshape(-1, hid)
        db = flat.sum(axis=0)
        for k in range(3):
            gate = slice(k * hid, (k + 1) * hid)
            _acc(gates[3 * k], dw[gate])
            _acc(gates[3 * k + 1], du_zr[gate] if k < 2 else du_c)
            _acc(gates[3 * k + 2], db[gate])
        if x is not None and x.requires_grad:
            _acc(x, _unpacked(da @ w, order))
        if h0 is not None and h0.requires_grad:
            _acc(h0, _unpacked(dh, order))

    _record(out, back)
    return out


def masked_max(a: Tensor, lengths) -> Tensor:
    """Channel-wise max of a [B, T, H] tensor over the first lengths[b]
    steps of each row; gradient flows to the first attaining step. When
    nothing will record the result (no active tape, or an input that needs
    no gradient), the maximum is taken directly, without locating it: the
    same bits."""
    av = a.values
    if av.ndim != 3:
        raise ShapeError(f"masked_max expects a [B, T, H] tensor, got shape {list(a.shape)}")
    lengths = _check_lengths(lengths, av.shape[0], av.shape[1])
    mask = (np.arange(av.shape[1])[None, :] < lengths[:, None])[:, :, None]
    if not (a.requires_grad and _active_tape() is not None):
        pooled = np.max(av, axis=1, where=mask, initial=-np.inf)
        return Tensor(pooled, requires_grad=a.requires_grad)
    idx = np.argmax(np.where(mask, av, -np.inf), axis=1)[:, None, :]
    out = Tensor(np.take_along_axis(av, idx, axis=1)[:, 0, :], requires_grad=a.requires_grad)

    def back(g):
        buf = np.zeros_like(av)
        np.put_along_axis(buf, idx, g[:, None, :], axis=1)
        _acc(a, buf)

    _record(out, back)
    return out


# ---------------------------------------------------------------------------
# finite-difference gradient verification


@dataclass
class FiniteDiffReport:
    """Result of comparing analytic gradients against central differences."""

    max_rel_err: float
    n_checked: int
    n_skipped_nondifferentiable: int
    tol: float
    per_param_max: list[float]

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _rel_err(a: float, n: float, floor: float) -> float:
    return abs(a - n) / max(floor, abs(a) + abs(n))


def finite_diff_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
    step: float = 1e-5,
    tol: float = 1e-4,
    coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> FiniteDiffReport:
    """Compare analytic gradients of scalar f(params) with central differences.

    Each checked coordinate is perturbed by +/-step; the central-difference
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
    if step <= 0.0:
        raise ContractError("finite_diff_check requires step > 0")
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
    per_param = []
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
        p_max = 0.0
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + step
            f_plus = eval_f()
            flat[idx] = orig - step
            f_minus = eval_f()
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = _rel_err(a_flat[idx], numeric, floor)
            if err >= tol:
                # split test: disagreeing one-sided quotients mean the
                # objective is locally nondifferentiable at this coordinate
                right = (f_plus - f_mid) / step
                left = (f_mid - f_minus) / step
                if abs(right - left) / max(1.0, abs(right), abs(left)) > 1e-3:
                    n_skipped += 1
                    continue
            n_checked += 1
            if err > p_max:
                p_max = err
        per_param.append(p_max)
        if p_max > max_err:
            max_err = p_max
    return FiniteDiffReport(
        max_rel_err=max_err,
        n_checked=n_checked,
        n_skipped_nondifferentiable=n_skipped,
        tol=tol,
        per_param_max=per_param,
    )
