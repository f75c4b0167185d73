"""Timing and tracing of hse from outside the package.

Nothing here edits hse's source. The benchmark replaces module attributes
for the duration of a phase and puts the originals back afterwards:

* OpClock marks each timed operation and scales its wall time to the
  reference speed of calibration.py. For training, an operation is one
  optimizer step, from the call of total_loss to the return of
  optimizer_step inside hse.training.train. For evaluation it is one call of
  evaluate_retrieval. This is all the untraced run installs.
* Tracer wraps the public functions of each layer. Every call becomes a
  span (name, start, end, parent, operation id) kept in memory. Self time
  of a span is its duration minus that of its child spans. In a separate
  pass the same boundaries give per-operation counts: tape records by
  primitive, Tensor allocations, gru_step calls and GC collections.
"""

from __future__ import annotations

import gc
import math
import sys
import time
from array import array
from collections import Counter, defaultdict

from calibration import SpeedGauge

# primitives given their own tape-record count; the rest are summed as "other"
TAPE_OPS = ("matmul", "add", "mul", "sigmoid", "tanh")

# (module, function, span name); model.encode_sequence is named per level below
SPANNED = [
    ("hse.tensorkit", "backward", "tensorkit.backward"),
    ("hse.model", "encode_hierarchical", "model.encode_hierarchical"),
    ("hse.model", "decode_hierarchical", "model.decode_hierarchical"),
    ("hse.losses", "total_loss", "losses.total_loss"),
    ("hse.losses", "loss_match_high", "losses.loss_match_high"),
    ("hse.losses", "loss_match_low", "losses.loss_match_low"),
    ("hse.losses", "loss_match_low_weak", "losses.loss_match_low_weak"),
    ("hse.losses", "loss_cluster_high", "losses.loss_cluster_high"),
    ("hse.losses", "loss_cluster_low", "losses.loss_cluster_low"),
    ("hse.losses", "loss_reconstruct", "losses.loss_reconstruct"),
    ("hse.training", "optimizer_step", "training.optimizer_step"),
    ("hse.evaluation", "encode_corpus", "evaluation.encode_corpus"),
    ("hse.evaluation", "rank_matrix", "evaluation.rank_matrix"),
    ("hse.data", "load_corpus", "data.load_corpus"),
    ("hse.data", "save_checkpoint", "data.save_checkpoint"),
    ("hse.data", "load_checkpoint", "data.load_checkpoint"),
]


class Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self):
        self._undo: list = []

    def set(self, obj, attr: str, value) -> None:
        old = getattr(obj, attr)
        setattr(obj, attr, value)
        self._undo.append(lambda: setattr(obj, attr, old))

    def gc_callback(self, callback) -> None:
        gc.callbacks.append(callback)  # the interpreter reads this very list
        self._undo.append(lambda: gc.callbacks.remove(callback))

    def everywhere(self, module: str, attr: str, make) -> None:
        """Replace module.attr by make(original) in every hse module that
        binds the original (hse re-exports with `from .x import y`)."""
        original = getattr(sys.modules[module], attr, None)
        if original is None:
            return  # the function is gone; its metrics read zero
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "hse":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, key, wrapper)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()


class OpClock:
    """Wall time and reference time of every timed operation; opens the
    operation's root span when a tracer is attached.

    The gauge's kernel runs outside the operation, before it (unless the
    previous operation's closing sample is at hand) and after it; the
    operation is scaled by the mean of the two kernel times."""

    def __init__(self, gauge: SpeedGauge, tracer: "Tracer | None" = None):
        self.times: list[float] = []  # wall seconds
        self.reference: list[float] = []  # the same at the kernel's reference speed
        self.gauge = gauge
        self.tracer = tracer
        self._start = 0.0
        self._before: float | None = None

    def begin(self, name: str) -> None:
        if self._before is None:
            self._before = self.gauge.sample()
        if self.tracer is not None:
            self.tracer.begin_op(name)
        self._start = time.perf_counter()

    def end(self) -> None:
        wall = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.end_op()
        after = self.gauge.sample()
        self.times.append(wall)
        self.reference.append(self.gauge.to_reference(wall, (self._before + after) / 2))
        self._before = after

    def abort(self) -> None:
        """Forget an operation that raised before end()."""
        if self.tracer is not None:
            self.tracer.end_op(aborted=True)
        self._before = None


def hook_training_steps(patches: Patches, clock: OpClock) -> None:
    """Mark step boundaries at the calls hse.training.train makes."""
    import hse.training as training

    total_loss, optimizer_step = training.total_loss, training.optimizer_step

    def step_begin(*args, **kwargs):
        clock.begin("training.step")
        return total_loss(*args, **kwargs)

    def step_end(*args, **kwargs):
        out = optimizer_step(*args, **kwargs)
        clock.end()
        return out

    patches.set(training, "total_loss", step_begin)
    patches.set(training, "optimizer_step", step_end)


def _record_op(record) -> str:
    # a tape record is (output, backward closure); the closure's qualname
    # names the primitive that recorded it, e.g. "matmul.<locals>.back"
    back = record[1] if isinstance(record, tuple) and len(record) > 1 else None
    name = getattr(back, "__qualname__", "").partition(".")[0]
    return name if name in TAPE_OPS else "other"


class Tracer:
    """In-memory spans and per-operation counters.

    Spans are stored column-wise in arrays of machine numbers, so that
    tracing adds no objects for the garbage collector to traverse and the
    collection counts it reports are those of the untraced program."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end_t = array("d")  # NaN while the span is open
        self.parent = array("i")  # -1: no parent
        self.op = array("i")  # -1: outside any timed operation
        self.stack: list[int] = []
        self.ops: list[int] = []  # ids of operations that completed
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._op = -1
        self._next_op = 0
        self._cur: Counter = Counter()  # counts of the open operation, or a sink
        self._high_grus: tuple = ()
        self._gc_start = 0.0

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self._op)
        self.end_t.append(math.nan)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.end_t[sid] = time.perf_counter()
        self.stack.pop()

    def spans(self):
        """(name, start, end, parent, op) of every span, in start order."""
        for i in range(len(self.start)):
            yield self.names[self.name_id[i]], self.start[i], self.end_t[i], self.parent[i], self.op[i]

    def begin_op(self, name: str) -> None:
        self._op = self._next_op
        self._next_op += 1
        self._cur = self.counts[self._op]
        self.begin(name)

    def end_op(self, aborted: bool = False) -> None:
        now = time.perf_counter()
        while self.stack:  # an exception may leave inner spans open
            self.end_t[self.stack.pop()] = now
        if not aborted:
            self.ops.append(self._op)
        self._op = -1
        self._cur = Counter()

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, patches: Patches) -> None:
        """Spans around each layer's public functions, and GC pauses."""
        for module, attr, name in SPANNED:
            patches.everywhere(module, attr, lambda fn, name=name: self._spanned(name, fn))
        patches.everywhere("hse.model", "encode_sequence", self._encode_sequence)
        patches.everywhere("hse.model", "encode_hierarchical", self._note_high_grus)
        patches.gc_callback(self._on_gc)

    def install_counters(self, patches: Patches) -> None:
        """Counts only. They are taken in a pass of their own because a
        wrapper on every Tensor allocation would inflate the span times."""
        import hse.tensorkit

        def count_gru_steps(gru_step):
            def wrapper(*args, **kwargs):
                self._cur["model.gru_steps"] += 1
                return gru_step(*args, **kwargs)

            return wrapper

        tensor_init = hse.tensorkit.Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            self._cur["tensorkit.tensors"] += 1
            tensor_init(tensor, *args, **kwargs)

        patches.everywhere("hse.model", "gru_step", count_gru_steps)
        patches.everywhere("hse.tensorkit", "backward", self._count_tape)
        patches.set(hse.tensorkit.Tensor, "__init__", counting_init)
        patches.gc_callback(self._on_gc)

    def _note_high_grus(self, fn):
        def wrapper(params, *args, **kwargs):
            self._high_grus = (getattr(params, "enc_v_high", None), getattr(params, "enc_p_high", None))
            return fn(params, *args, **kwargs)

        return wrapper

    def _encode_sequence(self, fn):
        def wrapper(gru, *args, **kwargs):
            high = any(gru is g for g in self._high_grus)
            sid = self.begin("model.encode_high" if high else "model.encode_low")
            try:
                return fn(gru, *args, **kwargs)
            finally:
                self.end(sid)

        return wrapper

    def _count_tape(self, fn):
        def wrapper(loss, *args, **kwargs):
            tape = getattr(loss, "tape", None)
            if tape is not None:
                self._cur["tensorkit.tape_records"] += len(tape)
                for record in getattr(tape, "_records", ()):
                    self._cur["tensorkit.tape_records." + _record_op(record)] += 1
            return fn(loss, *args, **kwargs)

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self._cur["tensorkit.gc_collections"] += 1
            self._cur["tensorkit.gc_pause_ms"] += 1000.0 * (time.perf_counter() - self._gc_start)

    # -- results -------------------------------------------------------------

    def self_ms(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per completed operation: mean self time and mean inclusive time of
        each span name, in ms. Spans outside an operation are left out."""
        child = [0.0] * len(self.start)
        for name, start, end, parent, op in self.spans():
            if parent >= 0:
                child[parent] += end - start
        done = set(self.ops)
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for (name, start, end, parent, op), under in zip(self.spans(), child):
            if op in done:
                own[name] += end - start - under
                total[name] += end - start
        n = max(len(done), 1)
        return (
            {k: 1000.0 * v / n for k, v in own.items()},
            {k: 1000.0 * v / n for k, v in total.items()},
        )

    def mean_counts(self) -> dict[str, float]:
        total: Counter = Counter()
        for op in self.ops:
            total.update(self.counts[op])
        n = max(len(self.ops), 1)
        return {k: v / n for k, v in total.items()}

    def setup_ms(self, name: str, reps: int) -> float:
        """Mean time per set-up repetition spent in spans of this name."""
        spent = sum(e - s for n, s, e, _, op in self.spans() if n == name and op < 0)
        return 1000.0 * spent / reps
