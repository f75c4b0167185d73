"""Minimal dense-tensor kernel with reverse-mode differentiation.

Operations execute eagerly on 64-bit numpy arrays. While a Tape is
active, every primitive whose output depends on a gradient-bearing
tensor appends a backward closure to the tape. backward() replays the
closures in reverse execution order, which is a valid reverse
topological order because records are appended as operations run. A
tape is recorded and replayed inside one with block, once: build a fresh
one per optimization step.

The primitives are those the model runs (add, mul_scalar, reshape, take,
cosine, segment_mean, gru_runs and the loss heads below), with no
broadcasting: add takes same-shape terms. Sequences are batched by padding:
gru_runs runs one GRU, or two of one hidden size, over padded [B, T, D]
batches with per-row lengths, multiplying by each cell's four weight
blocks as they are stored (no per-call stacking), and records the call as
one tape record, pooled or not. take gathers rows, so a model layer can
encode a whole batch with a handful of records.
The kernel orders each run's rows longest first and runs each step over
the rows still running only. It forms the input terms ahead of the
recurrence, one product per sequence for each window of _WINDOW steps,
a step's two recurrent products as one GEMM each per run over its running
rows, padded to 2 rows or more and to a width that is a multiple of 4
(where OpenBLAS gives a row the same bits at any row count and place),
and writes each step's arithmetic into buffers taken before the first
step. Two runs sit back to back in one row space, each packed longest
first toward the row where they meet, so the rows still running form one
window and each elementwise operation is one call for both. A call keeps
its states in one time-major array from the initial state at step 0, and
a recorded call its gates too, so that a step stores and the backward
reads contiguous rows; each run's closing products sum over its positions
in [B, T] order. With pool=True it returns each row's channel-wise maxima
over its valid steps, kept as a running maximum; a recorded run also
keeps the step of each first maximum, where the backward sends the
gradient. When nothing will record them the maxima and two states are
all it keeps, so an evaluation run holds no [B, T, .] buffer. None of
this changes a row's bits, which do not depend on the batch, on the
row's place in it or on the run beside it.

Memory: every tape holds a Workspace, a grown-only float64 block: its
own, or one it was given and whose maker owns it (training keeps one from
step to step and from call to call, and a second, outside any tape, for
each call's gradient and optimizer buffers). While a tape is active,
gru_runs takes every buffer from its workspace; a fresh workspace has no
block yet, so each of its takes is a plain numpy allocation. What a
recorded call keeps for its backward lives until the tape exits, the
forward's scratch goes back when the forward ends, and the backward's
when the closure returns. Outside any tape, gru_runs allocates with numpy.

Outside its two step loops, a recorded pooled pair with input takes 14
buffers: in the forward, one for the states, gates and candidates, and
one each for the first-maximum steps, the pair's bias, the running
maxima, their rises, the two recurrent products' outputs, their scratch
and the input terms; in the backward, one for each run's gate gradients,
one for the upstream gradient, one for the pooled gradient's flat index
and one for the step buffers with dh. Its other arrays are numpy's: the
transposed weight copies, the closing products, the gradients it hands
on and, pooled, the index's arange of the cells. It
fills only what a read can reach before a write: the initial state
(unless every run has an h0), the spare rows that a lone row's GEMMs read,
the reset gates and gate gradients at padded positions, which the closing
products read (none for a run with no padded row), the running maxima
(-inf) and first-maximum steps, the upstream gradient buffer (pooled,
all of it; unpooled, only a run that got no gradient) and dh. So no bit
depends on what the block held, and a returned tensor is a copy, never a
view of the block. The tape's exit resets the workspace, so every slot
is free again; backward refuses a tape that has exited, so no record
reads reused memory.

The training objective's heads are one record each, with a hand-written
backward: rank_hinge and cluster_hinge over a square similarity matrix,
weighted_sq_err against constant targets, and affine for a projection
with bias. Each computes its value and gradient operation for operation
as the equivalent chain of elementwise primitives would, so trained
weights keep their bits.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "Workspace",
    "backward",
    "add",
    "mul_scalar",
    "reshape",
    "take",
    "cosine",
    "segment_mean",
    "rank_hinge",
    "cluster_hinge",
    "weighted_sq_err",
    "affine",
    "gru_runs",
    "zero_grads",
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


class Workspace:
    """A grown-only float64 block that gru_runs takes its buffers from while
    a tape holding this workspace is active (see the module docstring). Its
    owner may also take from it and reset it directly, outside any tape.

    take hands out the next free slots as an array, or a plain allocation
    for a need past the block's capacity (every take of a fresh workspace,
    whose capacity is 0). reset (at the tape's exit) frees every slot at
    once. If the need since the last reset overflowed the block, reset also
    drops it, and the next take makes one of max(need, 2 * capacity) slots,
    once the last tape's buffers are freed and their memory can serve it;
    the capacity never shrinks. A caller may hand slots back early by
    setting offset back to a value it read before taking them."""

    def __init__(self):
        self.capacity = 0
        self.block: np.ndarray | None = None
        self.offset = 0  # the first free slot
        self.need = 0  # the most slots in use at once since the last reset

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialised array of shape and dtype (at most 8 bytes an
        item): a slot per item, from a 64-byte boundary of the block."""
        size = math.prod(shape)
        start = self.offset
        self.offset = end = start + -(-size // 8) * 8
        if end > self.need:
            self.need = end
        if end > self.capacity:
            return np.empty(shape, dtype)
        if self.block is None:
            # from a 64-byte boundary, so that every take starts on a cache line
            raw = np.empty(self.capacity + 7)
            first = -raw.ctypes.data % 64 // 8
            self.block = raw[first : first + self.capacity]
        view = self.block[start : start + size]
        return (view if dtype is np.float64 else view.view(dtype)[:size]).reshape(shape)

    def reset(self) -> None:
        if self.need > self.capacity:
            self.capacity = max(self.need, 2 * self.capacity)
            self.block = None
        self.offset = self.need = 0


class Tape:
    """Ordered record of the primitives applied during one forward pass.

    A context manager, entered once; the innermost active tape receives the
    records. It holds a workspace, its own (a fresh Workspace) unless it is
    given one, lends it to gru_runs while active and resets it at exit. So
    a tape is replayed (via backward) inside its with block, at most once.
    """

    def __init__(self, workspace: Workspace | None = None):
        # (output or tuple of outputs, backward closure), in execution order
        self._records: list[tuple[Tensor | tuple[Tensor, ...], Callable]] = []
        self._entered = self._used = False
        self.workspace = Workspace() if workspace is None else workspace

    def __len__(self) -> int:
        return len(self._records)

    def __enter__(self) -> "Tape":
        if self._entered:
            raise ContractError("tape already entered; tapes are single use")
        self._entered = True
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise ContractError("tape context exited out of order")
        self.workspace.reset()
        return False


_TAPE_STACK: list[Tape] = []

# recorded outputs point here once their tape is replayed (see backward)
_SPENT_TAPE = Tape()
_SPENT_TAPE._used = True


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(out: Tensor | tuple[Tensor, ...], back: Callable) -> None:
    """Record back, the backward of an operation with output out, or with
    the outputs in the tuple out; back then takes their gradients as one
    list (see backward)."""
    tape = _active_tape()
    if tape is None:
        return
    outs = out if isinstance(out, tuple) else (out,)
    if any(o.requires_grad for o in outs):
        for o in outs:
            o.tape = tape
        tape._records.append((out, back))


def _acc(t: Tensor, g) -> None:
    if t.requires_grad:
        if t.grad is None:
            # a C-order copy: g may be a broadcast, transposed or caller-owned array
            t.grad = np.array(g, dtype=np.float64, order="C")
        else:
            t.grad += g


def backward(loss: Tensor) -> None:
    """Populate dLoss/dLeaf on every gradient-bearing tensor in the graph.

    The loss must be a scalar produced while a tape was active, and that
    tape must still be active and not have been replayed before.
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
    if tape not in _TAPE_STACK:
        raise ContractError("tape exited and its workspace was reset; replay a tape inside its with block")
    tape._used = True
    loss.grad = np.ones_like(loss.values)
    for out, back in reversed(tape._records):
        if isinstance(out, tuple):
            # one call with every output's gradient, None where it got none
            g = [o.grad for o in out]
            if all(gi is None for gi in g):
                continue
        else:
            g = out.grad
            if g is None:
                continue
        back(g)
    # Each output references its tape, which references the output: a
    # reference cycle that would keep the whole graph alive until a garbage
    # collection. Re-pointing the outputs at a shared spent tape frees the
    # graph as soon as the caller drops the tape.
    for out, _ in tape._records:
        for o in out if isinstance(out, tuple) else (out,):
            o.tape = _SPENT_TAPE


def zero_grads(tensors: Sequence[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# primitives


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


def add(a: Tensor, b: Tensor, *rest: Tensor) -> Tensor:
    """Sum of two or more same-shape terms, added left to right: one record."""
    terms = (a, b, *rest)
    total = a.values
    for t in terms[1:]:
        if t.values.shape != a.values.shape:
            raise ShapeError(f"add shape mismatch: {list(a.shape)} vs {list(t.shape)}")
        total = total + t.values
    out = Tensor(total, requires_grad=any(t.requires_grad for t in terms))

    def back(g):
        for t in terms:
            _acc(t, g)

    _record(out, back)
    return out


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.values * c, requires_grad=a.requires_grad)

    def back(g):
        _acc(a, g * c)

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
    out = Tensor(a.values[idx], requires_grad=a.requires_grad)

    def back(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.values)
        np.add.at(a.grad, idx, g)

    _record(out, back)
    return out


def cosine(u: Tensor, w: Tensor) -> Tensor:
    """Cosine similarity of every row of u [N, D] with every row of w [M, D].

    Each entry is computed from its two rows alone (an einsum sums the
    elementwise products along D; a GEMM would block the sum by position),
    so it does not depend on the other rows or on the rows' positions, to
    the last bit."""
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
    ov = np.einsum("nd,md->nm", uv, wv) / norms
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


# ---------------------------------------------------------------------------
# loss heads (see the module docstring)


def _square_matrix(sim: Tensor, op: str) -> np.ndarray:
    sv = sim.values
    if sv.ndim != 2 or sv.shape[0] != sv.shape[1]:
        raise ShapeError(f"{op} needs a square [K, K] matrix, got shape {list(sv.shape)}")
    return sv


def rank_hinge(sim: Tensor, margin: float) -> Tensor:
    """Margin ranking loss over a square similarity matrix whose diagonal
    holds the aligned pairs, over both retrieval directions and every
    off-diagonal negative:

        sum_{i != j} [margin + sim[i, j] - sim[j, j]]_+ + [margin + sim[i, j] - sim[i, i]]_+

    so that minimizing it lifts each aligned pair at least a margin above
    its negatives. A hinge at exactly 0 passes no gradient. A diagonal
    entry's gradient sums its row terms and then its column terms one after
    another, in index order."""
    sv = _square_matrix(sim, "rank_hinge")
    k = sv.shape[0]
    margin = float(margin)
    off = 1.0 - np.eye(k)
    diag = sv.diagonal()
    a1, a2 = (sv - diag[None, :]) + margin, (sv - diag[:, None]) + margin
    loss = (np.maximum(a1, 0.0) * off).sum() + (np.maximum(a2, 0.0) * off).sum()
    out = Tensor(loss, requires_grad=sim.requires_grad)

    def back(g):
        g_off = g * off
        g1, g2 = g_off * (a1 > 0.0), g_off * (a2 > 0.0)
        terms = np.concatenate([np.zeros((k, 1)), -g2, -g1.T], axis=1)
        on_diag = np.zeros((k, k))
        np.fill_diagonal(on_diag, np.cumsum(terms, axis=1)[:, -1])
        _acc(sim, (g2 + g1) + on_diag)

    _record(out, back)
    return out


def cluster_hinge(sim: Tensor, margin: float) -> Tensor:
    """Clustering loss over a square same-modality similarity matrix,
    sum_{i != j} [margin + sim[i, j] - 1]_+, which penalizes distinct items
    more similar than 1 - margin. A hinge at exactly 0 passes no gradient."""
    sv = _square_matrix(sim, "cluster_hinge")
    margin = float(margin)
    off = 1.0 - np.eye(sv.shape[0])
    a = sv + (margin - 1.0)
    out = Tensor((np.maximum(a, 0.0) * off).sum(), requires_grad=sim.requires_grad)

    def back(g):
        _acc(sim, (g * off) * (a > 0.0))

    _record(out, back)
    return out


def weighted_sq_err(pred: Tensor, target, weights=None) -> Tensor:
    """sum (pred - target)^2, each entry times its weight when weights are
    given. target and weights are constant arrays of pred's shape."""
    pv = pred.values
    target = np.asarray(target, dtype=np.float64)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    if target.shape != pv.shape or weights is not None and weights.shape != pv.shape:
        raise ShapeError(
            f"weighted_sq_err: target {list(target.shape)} and weights "
            f"{None if weights is None else list(weights.shape)} must match pred {list(pv.shape)}"
        )
    diff = pv - target
    sq = diff * diff
    out = Tensor((sq if weights is None else sq * weights).sum(), requires_grad=pred.requires_grad)

    def back(g):
        if weights is not None:
            g = g * weights
        _acc(pred, g * 2.0 * diff)

    _record(out, back)
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x w^T + b for x [N, K], w [M, K] and b [M]."""
    xv, wv, bv = x.values, w.values, b.values
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[1] or bv.shape != wv.shape[:1]:
        raise ShapeError(
            f"affine needs x [N, K], w [M, K] and b [M], got {list(xv.shape)}, "
            f"{list(wv.shape)} and {list(bv.shape)}"
        )
    # BLAS sums in an order set by the operands' layout: a contiguous w^T
    # and a ones-column product for the bias gradient keep the bits that
    # trained checkpoints were computed with
    w_t = wv.T.copy()
    out = Tensor(xv @ w_t + bv, requires_grad=x.requires_grad or w.requires_grad or b.requires_grad)

    def back(g):
        if x.requires_grad:
            _acc(x, g @ w_t.T)
        _acc(w, (xv.T @ g).T)
        _acc(b, (np.ones((xv.shape[0], 1)).T @ g).reshape(bv.shape))

    _record(out, back)
    return out


def _padded_columns(u: np.ndarray) -> np.ndarray:
    """u with zero columns appended up to a width that is a multiple of 4
    (u itself when its width is one already). OpenBLAS's GEMM gives a row
    of A @ u bits that depend on A's row count and on the row's position
    for some widths (N = 1 from K = 8, N mod 8 in {1, 2, 3} from K = 16),
    and for none that is a multiple of 4."""
    rows, width = u.shape
    if width % 4 == 0:
        return u
    out = np.zeros((rows, width + -width % 4))
    out[:, :width] = u
    return out


def _packed(v: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """The rows of v in packed order (order None: v itself)."""
    return v if order is None else v[order]


def _unpacked(v: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """Packed rows back in the caller's order, in a new C-contiguous array
    (v may be a view of a workspace, which the next tape reuses)."""
    if order is None:
        return v.copy()
    out = np.empty(v.shape)
    out[order] = v
    return out


# steps whose input terms gru_runs forms ahead of the recurrence, a window
# at a time, so that its buffer for them does not grow with T
_WINDOW = 32


def _window_input_terms(
    xp: np.ndarray, w: np.ndarray, active: list[int], t0: int, out: np.ndarray
) -> None:
    """Input terms x w of packed rows for steps t0 .. t0 + _WINDOW - 1, into
    out[:, :m] for a row with m of its steps in the window.

    Rows with the same m are a contiguous slice of the packed batch (its
    bounds come from active), multiplied by one stacked product: a row's
    terms are one matrix product over its own m steps, the same bits
    whatever the other rows are and wherever the row sits."""
    span = min(_WINDOW, len(active) - t0)
    for m in range(1, span + 1):
        i0 = active[t0 + m] if m < span else 0
        i1 = active[t0 + m - 1]
        if i1 > i0:
            np.matmul(xp[i0:i1, t0 : t0 + m], w, out=out[i0:i1, :m])


class _Run:
    """One GRU run of a gru_runs call: its operands, checked, with its rows
    packed longest first, and where those rows sit in the row space the
    call's runs share (place)."""

    def __init__(self, x: Tensor | None, lengths, weights: Sequence[Tensor], h0: Tensor | None):
        if len(weights) != 4:
            raise ContractError(f"gru_runs needs the 4 weight blocks, got {len(weights)}")
        w, u_zr, u_c, b = blocks = [t.values for t in weights]
        hid = u_c.shape[0] if u_c.ndim == 2 else -1
        lengths = np.asarray(lengths, dtype=np.intp)
        # longest first: a stable sort, skipped when the lengths do not increase
        order = descending = None
        if lengths.ndim == 1:
            given = lengths.tolist()
            descending = sorted(given, reverse=True)
            if descending != given:
                order = np.argsort(-lengths, kind="stable")
        if x is None:
            dim = w.shape[0]
            bsz = lengths.size
            steps = descending[0] if descending else int(lengths.max()) if bsz else 0
        else:
            xv = x.values
            if xv.ndim != 3:
                raise ShapeError(f"gru_runs input must be [B, T, D], got shape {list(xv.shape)}")
            bsz, steps, dim = xv.shape
        expect = ((dim, 3 * hid), (hid, 2 * hid), (hid, hid), (3 * hid,))
        if (w.shape, u_zr.shape, u_c.shape, b.shape) != expect:
            for name, v, shape in zip(("w", "u_zr", "u_c", "b"), blocks, expect):
                if v.shape != shape:
                    raise ShapeError(
                        f"gru_runs {name} has shape {list(v.shape)}, expected {list(shape)}"
                    )
        if h0 is not None and h0.values.shape != (bsz, hid):
            raise ShapeError(
                f"gru_runs h0 has shape {list(h0.values.shape)}, expected {[bsz, hid]}"
            )
        if lengths.shape != (bsz,) or bsz and not 1 <= descending[-1] <= descending[0] <= steps:
            raise ShapeError(f"need {bsz} lengths in 1..{steps}, got {lengths.tolist()}")
        self.x, self.weights, self.h0 = x, weights, h0
        self.w, self.u_zr, self.u_c, self.b = w, u_zr, u_c, b
        self.hid, self.dim, self.bsz, self.steps = hid, dim, bsz, steps
        self.order = order
        # the steps that every row runs: all of them when no row is padded
        self.full = full = descending[-1] if bsz else steps
        # rows still running at each step (counted from the lengths, with no
        # [B, T] temporary); in packed order they are the first active[t] rows
        ascending = descending[::-1]
        self.active = [bsz] * full + [bsz - bisect_right(ascending, t) for t in range(full, steps)]
        self.xp = None if x is None else _packed(xv, order)
        self.requires_grad = any(t is not None and t.requires_grad for t in (*weights, x, h0))

    def place(self, edge: int, below: bool) -> None:
        """Put the packed rows next to row edge: below it, longest last (run
        A), or from it on, longest first (run B)."""
        self.below = below
        self.rows = slice(edge - self.bsz, edge) if below else slice(edge, edge + self.bsz)

    def own(self, v: np.ndarray) -> np.ndarray:
        """The run's rows of v (its first axis), in packed order."""
        return v[self.rows][::-1] if self.below else v[self.rows]


# exp(-v) overflows below v = -709.78, where sigmoid takes its limit 0; one
# errstate per call, as entering and leaving one per step takes about 2 us
@np.errstate(over="ignore")
def gru_runs(runs: Sequence[tuple], pool: bool = False) -> tuple[Tensor, ...]:
    """Hidden states of one or two GRU runs of one hidden size over padded
    batches, stepped in one loop and recorded as one tape record.

    Each run is a tuple (x, lengths, weights, h0). x is [B, T, D]; row b has
    lengths[b] valid steps (1..T) followed by padding. x may be None for a
    GRU without input (the decoders): the batch is then len(lengths) rows
    of max(lengths) steps, the input term is left out and the input weights
    get exact zero gradients. Both runs have an input or neither has.
    weights are the cell's four C-contiguous blocks, columns in z|r|h gate
    order: w [D, 3H], u_zr [H, 2H], u_c [H, H] and b [3H].

        [z | r] = sigmoid(x w[:, :2H] + h u_zr + b[:2H]),
        cand = tanh(x w[:, 2H:] + (r*h) u_c + b[2H:]), h' = (1 - z)*h + z*cand.

    h0 is an optional [B, H] initial state, zero when None. Returns one
    tensor per run, in the order given: the [B, T, H] states in the
    caller's row order, where at a padded step a row carries its state
    forward unchanged. With pool, each is instead the [B, H] channel-wise
    maxima of the row's states over its valid steps, and the gradient of a
    maximum flows to the first step that attains it (a later NaN state does
    not draw it). Each run's output is the same bits as a call with that
    run alone returns, and the backward gives each run's parents the
    gradients that call's record would, bit for bit.

    The runs share one row space, [spare | run A, longest row last | run B,
    longest row first | spare] (a spare row only beside a run of one row;
    a lone run is run B), so the rows running at step t are one window,
    [edge - n_A(t), edge + n_B(t)), where edge is the row at which the runs
    meet. No run is padded to the other's row count. Every elementwise
    operation, the input-term and bias adds (the bias one [rows, 3H] array
    for two runs), the pooling and the tape stores are one call over that
    window. Each run forms its own input terms, run A's into a reversed
    view of the shared buffer. The GEMMs go run by run:

    * A step's recurrent products take each run's max(n, 2) rows next to
      the edge (a lone row beside a finished row of its run or a spare
      row), by columns padded to a multiple of 4, where a row's bits do
      not depend on its position, so run A's reversed rows keep theirs.
    * The backward's products (d_rh and the u_zr product) have unpadded
      widths, where OpenBLAS can give a row other bits at another
      position (at N mod 8 in {1, 2, 3}), so they take each run's n
      running rows in packed order: run A's through a contiguous reversed
      copy.
    * Each run's gate gradients go to a [B, T, 3H] array of its own, in its
      packed order (run A's through a reversed view), so the closing
      products sum over the run's positions in its own [B, T] order.

    The call keeps its states in one array, hs, indexed [step, row]: hs[0]
    is the initial state (zero, with each run's h0 on its rows), and step t
    reads hs[t % len(hs)] and writes hs[(t + 1) % len(hs)]. hs holds all
    T + 1 steps when every state is kept, because a tape records the call
    or because it returns them (hs[1:], with one transposing copy);
    otherwise it holds two, so a pooled call that nothing records does not
    grow with T. A recorded call keeps z, r and cand as [T, rows, H] arrays
    after hs in one buffer and, pooled, the step of each channel's first
    maximum: a state strictly greater than the running maximum moves it.
    Its backward copies the upstream gradient time-major into a buffer of
    its own (a pooled gradient goes to its first-maximum step, by one flat
    index per entry), reads the state before step t as hs[t], and builds
    each run's previous states, and then their products with r,
    batch-major in that spent buffer for the closing products. Where exp
    overflows, sigmoid takes its limit 0 without a warning.

    The record's closure takes both outputs' gradients; a run whose output
    got none leaves its parents' gradients as they were.

    Memory: under a tape, every buffer above comes from the tape's
    workspace (the module docstring gives the rule, and which buffers a
    call takes and fills): the states, gates and first-maximum steps until
    the tape exits, the forward's scratch (bias, running maxima, step and
    input-term buffers) until the forward ends, and the backward's (gate
    and state gradients, the pooled gradient's flat index, step buffers)
    until the closure returns. Outside any tape they are numpy's.
    """
    if not 1 <= len(runs) <= 2:
        raise ContractError(f"gru_runs takes one or two runs, got {len(runs)}")
    runs = [_Run(*run) for run in runs]
    hid = runs[0].hid
    if runs[-1].hid != hid:
        raise ShapeError(f"paired GRU runs need one hidden size, got {hid} and {runs[-1].hid}")
    inputs = runs[0].x is not None
    if (runs[-1].x is not None) != inputs:
        raise ContractError("paired GRU runs need an input in both runs or in neither")
    a, b = runs if len(runs) == 2 else (None, runs[0])
    steps = max(runs[0].steps, runs[-1].steps)
    # each run's running rows at every step of the loop, 0 once it has ended
    act_b = b.active + [0] * (steps - b.steps)
    if a:
        edge = max(a.bsz, 2)
        a_bsz, a_steps = a.bsz, a.steps
        act_a = a.active + [0] * (steps - a.steps)
        a.place(edge, below=True)
    else:
        edge = a_bsz = a_steps = 0
        act_a = [0] * steps
    b.place(edge, below=False)
    b_end = edge + b.bsz
    rows = edge + max(b.bsz, 2)
    tape = _active_tape()
    keep = tape is not None and (runs[0].requires_grad or runs[-1].requires_grad)
    # every buffer below comes from the tape's workspace under a tape
    ws = None if tape is None else tape.workspace
    empty = np.empty if ws is None else ws.take
    h2 = 2 * hid
    # each run's recurrent weights with zero columns up to a multiple of 4
    padded = [(_padded_columns(run.u_zr), _padded_columns(run.u_c)) for run in runs]
    (ua_zr, ua_c), (ub_zr, ub_c) = padded[0], padded[-1]
    # the states, [step, row], from the initial ones in hs[0]: all T + 1 steps
    # when they are kept, two otherwise (the docstring gives the rule)
    if keep:  # and the gates and candidates, [t, row] like the states
        kept = empty((4 * steps + 1, rows, hid))
        hs, zs = kept[: steps + 1], kept[steps + 1 : 2 * steps + 1]
        cands, rs = kept[2 * steps + 1 : 3 * steps + 1], kept[3 * steps + 1 :]
        for run in runs:  # zero where a row is padded, where du_c reads it
            if run.full < run.steps:
                rs[run.full : run.steps, run.rows] = 0.0
        if pool:  # the step of each channel's first maximum
            first = empty((rows, hid), np.intp)
            first.fill(0)
    else:
        hs = empty((2 if pool else steps + 1, rows, hid))
    if runs[0].h0 is None or runs[-1].h0 is None:
        hs[0] = 0.0
    for run in runs:
        if run.h0 is not None:
            run.own(hs[0])[...] = _packed(run.h0.values, run.order)
    spare = rows > b_end or edge > a_bsz  # rows that a lone row's GEMMs read
    if spare:
        hs[:, : edge - a_bsz] = hs[:, b_end:] = 0.0
    # the rest is the forward's scratch, which a workspace gets back at its end
    scratch = None if ws is None else ws.offset
    # the bias of each row for two runs (no step reads a spare row's); one
    # row, broadcast, for one
    if a:
        bias = empty((rows, 3 * hid))
        bias[a.rows], bias[b.rows] = a.b, b.b
    else:
        bias = b.b[None]
    if pool:  # a running maximum from -inf
        best = empty((rows, hid))
        best.fill(-np.inf)
        if keep:
            rises = empty((rows, hid), bool)
    # buffers that every step writes into, a GEMM's spare rows and padded
    # columns included (their results are scratch); a step allocates
    # nothing. A step writes tmp_buf's running rows before its GEMMs read
    # them, and a lone row's neighbour there is a finished row, written at
    # an earlier step, or a spare row, which starts at zero.
    zr_buf, c_buf = empty((rows, ub_zr.shape[1])), empty((rows, ub_c.shape[1]))
    tmp_buf = empty((rows, hid))
    if spare:
        tmp_buf[: edge - a_bsz] = tmp_buf[b_end:] = 0.0
    if inputs:  # the input terms of one window of steps, each run's rows in packed order
        xw_buf = empty((rows, min(_WINDOW, steps), 3 * hid))
        xw_runs = [(run, run.own(xw_buf)) for run in runs]
    for t in range(steps):
        na, nb = act_a[t], act_b[t]
        lo, hi = edge - na, edge + nb
        h_in, h_out = hs[t % len(hs)], hs[(t + 1) % len(hs)]
        hp = h_in[lo:hi]
        # each run's GEMM rows: its max(n, 2) rows next to the edge
        ga, gb = edge - max(na, 2), edge + max(nb, 2)
        if na:
            np.matmul(h_in[ga:edge], ua_zr, out=zr_buf[ga:edge])
        if nb:
            np.matmul(h_in[edge:gb], ub_zr, out=zr_buf[edge:gb])
        zr = zr_buf[lo:hi, :h2]
        if inputs:
            if t % _WINDOW == 0:
                for run, out in xw_runs:
                    if t < run.steps:
                        _window_input_terms(run.xp, run.w, run.active, t, out)
            xw = xw_buf[lo:hi, t % _WINDOW]
            np.add(xw[:, :h2], zr, out=zr)
        bias_t = bias[lo:hi] if a else bias
        np.add(zr, bias_t[:, :h2], out=zr)
        # sigmoid, 1/(1 + exp(-v)), in place
        np.negative(zr, out=zr)
        np.exp(zr, out=zr)
        np.add(1.0, zr, out=zr)
        np.divide(1.0, zr, out=zr)
        z, r = zr[:, :hid], zr[:, hid:]
        np.multiply(r, hp, out=tmp_buf[lo:hi])
        if na:
            np.matmul(tmp_buf[ga:edge], ua_c, out=c_buf[ga:edge])
        if nb:
            np.matmul(tmp_buf[edge:gb], ub_c, out=c_buf[edge:gb])
        cand = c_buf[lo:hi, :hid]
        if inputs:
            np.add(xw[:, h2:], cand, out=cand)
        np.add(cand, bias_t[:, h2:], out=cand)
        cand = np.tanh(cand, out=cands[t, lo:hi] if keep else cand)
        # h' = (1 - z)*h + z*cand
        h = h_out[lo:hi]
        np.subtract(1.0, z, out=h)
        np.multiply(h, hp, out=h)
        np.add(h, np.multiply(z, cand, out=tmp_buf[lo:hi]), out=h)
        if pool:
            if keep and t:  # at step 0 every first maximum is at step 0
                np.greater(h, best[lo:hi], out=rises[lo:hi])
                np.putmask(first[lo:hi], rises[lo:hi], t)
            np.maximum(best[lo:hi], h, out=best[lo:hi])
            if not keep:
                continue
        # finished rows carry their state (none at step 0, where all run)
        if na < a_bsz and t < a_steps:
            hs[t + 1, edge - a_bsz : lo] = hs[t, edge - a_bsz : lo]
        if nb < b.bsz and t < b.steps:
            hs[t + 1, hi:b_end] = hs[t, hi:b_end]
        if keep:
            zs[t, lo:hi], rs[t, lo:hi] = z, r
    hs_rows = None if pool else hs[1:].transpose(1, 0, 2)
    outs = tuple(
        Tensor(
            _unpacked(run.own(best) if pool else run.own(hs_rows)[:, : run.steps], run.order),
            requires_grad=run.requires_grad,
        )
        for run in runs
    )
    if ws is not None:
        ws.offset = scratch
    if not keep:
        return outs

    def back(grads):
        mark = ws.offset  # the backward's scratch goes back at return
        # each run's gate pre-activation gradients, [B, T, 3H] in its packed
        # order (zero where a row is padded, where the closing products read
        # them), and contiguous transposes, so that dx, d_rh and dh do not
        # depend on how BLAS treats a transposed operand
        per_run = []
        for run in runs:
            da = empty((run.bsz, run.steps, 3 * hid))
            if run.full < run.steps:
                da[:, run.full :] = 0.0
            per_run.append((da, run.u_zr.T.copy(), run.u_c.T.copy()))
        (da_a, ua_zr_t, ua_c_t), (da_b, ub_zr_t, ub_c_t) = per_run[0], per_run[-1]
        # the upstream gradient of the states, time-major, in a buffer of the
        # call's own (a caller's [B, T, H] gradient can be its time-major view)
        g_steps = empty((steps, rows, hid))
        if pool:
            # each maximum's gradient goes to the first step that attains it:
            # at holds that entry's flat index in g_steps (the cells' arange
            # is a numpy temporary)
            g_steps.fill(0.0)
            at = np.multiply(first, rows * hid, out=empty((rows, hid), np.intp))
            at += np.arange(rows * hid).reshape(rows, hid)
            for run, g in zip(runs, grads):
                if g is not None:
                    g_steps.reshape(-1)[run.own(at)] = _packed(g, run.order)
        else:
            for run, g in zip(runs, grads):
                g_run = run.own(g_steps.transpose(1, 0, 2))[:, : run.steps]
                if g is None:
                    g_run.fill(0.0)
                else:
                    np.copyto(g_run, _packed(g, run.order))
        # contiguous, so that each ufunc runs one loop over all rows; the
        # first three hold a step's da_z, da_r and da_c, in gate order, and
        # the last two run A's running rows in packed order, contiguous
        bufs = empty((9 if a else 7, rows, hid))
        dz_buf, dr_buf, dc_buf, d_rh_buf, dh_buf, tmp_buf, dh = bufs[:7]
        dh.fill(0.0)
        if a:
            a_c, a_out = bufs[7:, :a_bsz]
        for t in range(steps - 1, -1, -1):
            na, nb = act_a[t], act_b[t]
            lo, hi = edge - na, edge + nb
            # every row of a run that has step t takes its upstream gradient
            g_lo, g_hi = edge - a_bsz if t < a_steps else edge, b_end if t < b.steps else edge
            dh[g_lo:g_hi] += g_steps[t, g_lo:g_hi]
            z, r, cand = zs[t, lo:hi], rs[t, lo:hi], cands[t, lo:hi]
            hp = hs[t, lo:hi]
            dnew = dh[lo:hi]
            tmp = tmp_buf[lo:hi]
            # da_c = dnew * z * (1.0 - cand * cand)
            da_c = np.multiply(dnew, z, out=dc_buf[lo:hi])
            np.multiply(cand, cand, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(da_c, tmp, out=da_c)
            # d_rh = da_c @ u_c_t, each run's rows in packed order
            if na:
                np.copyto(a_c[:na], dc_buf[lo:edge][::-1])
                np.copyto(d_rh_buf[lo:edge][::-1], np.matmul(a_c[:na], ua_c_t, out=a_out[:na]))
            if nb:
                np.matmul(dc_buf[edge:hi], ub_c_t, out=d_rh_buf[edge:hi])
            d_rh = d_rh_buf[lo:hi]
            # da_z = dnew * (cand - hp) * z * (1.0 - z)
            da_z = np.subtract(cand, hp, out=dz_buf[lo:hi])
            np.multiply(dnew, da_z, out=da_z)
            np.multiply(da_z, z, out=da_z)
            np.subtract(1.0, z, out=tmp)
            np.multiply(da_z, tmp, out=da_z)
            # the new dh, dnew * (1.0 - z) + d_rh * r + da_zr @ u_zr_t, starts here
            dh_new = np.multiply(dnew, tmp, out=dh_buf[lo:hi])
            # da_r = d_rh * hp * r * (1.0 - r)
            da_r = np.multiply(d_rh, hp, out=dr_buf[lo:hi])
            np.multiply(da_r, r, out=da_r)
            np.subtract(1.0, r, out=tmp)
            np.multiply(da_r, tmp, out=da_r)
            np.add(dh_new, np.multiply(d_rh, r, out=tmp), out=dh_new)
            # each run's [da_z | da_r | da_c] rows, then da_zr @ u_zr_t over them
            if na:
                gates = bufs[:3, lo:edge][:, ::-1].transpose(1, 0, 2)
                np.copyto(da_a[:na, t].reshape(na, 3, hid), gates)
                np.copyto(tmp[:na][::-1], np.matmul(da_a[:na, t, :h2], ua_zr_t, out=a_out[:na]))
            if nb:
                np.copyto(da_b[:nb, t].reshape(nb, 3, hid), bufs[:3, edge:hi].transpose(1, 0, 2))
                np.matmul(da_b[:nb, t, :h2], ub_zr_t, out=tmp_buf[edge:hi])
            np.add(dh_new, tmp, out=dnew)
        # the closing products sum over each run's positions in its packed
        # [B, T] order: h_prev and then rs * h_prev are built batch-major in
        # g_steps, which is spent. The later run's gradients accumulate
        # first, as two records' would.
        spent = g_steps.reshape(-1)
        for run, g, (da, _, _) in reversed(list(zip(runs, grads, per_run))):
            if g is None:
                continue
            bsz, n_steps = run.bsz, run.steps
            flat = da.reshape(-1, 3 * hid)
            if run.x is not None:
                dw_t = (flat.T @ run.xp.reshape(-1, run.dim)).T
            else:  # no input term: the input weights' gradient is exactly zero
                dw_t = np.zeros(run.w.shape)
            h_prev = spent[: bsz * n_steps * hid].reshape(bsz, n_steps, hid)
            np.copyto(h_prev, run.own(hs.transpose(1, 0, 2))[:, :n_steps])
            du_zr = flat[:, :h2].T @ h_prev.reshape(-1, hid)
            rh_prev = np.multiply(run.own(rs.transpose(1, 0, 2))[:, :n_steps], h_prev, out=h_prev)
            du_c = flat[:, h2:].T @ rh_prev.reshape(-1, hid)
            for block, grad in zip(run.weights, (dw_t, du_zr.T, du_c.T, flat.sum(axis=0))):
                _acc(block, grad)
            if run.x is not None and run.x.requires_grad:
                _acc(run.x, _unpacked(da @ run.w.T.copy(), run.order))
            if run.h0 is not None and run.h0.requires_grad:
                _acc(run.h0, _unpacked(run.own(dh), run.order))
        ws.offset = mark

    _record(outs, back)
    return outs
