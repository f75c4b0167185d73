import tracemalloc
import warnings

import numpy as np
import oracles
import pytest

from hse import tensorkit as tk
from hse.data import ParagraphSample, VideoSample, load_checkpoint, save_checkpoint
from hse.errors import ContractError, ShapeError
from hse.model import (
    GruParams,
    ModelDims,
    build_params,
    decode_batch,
    encode_batch,
    encode_flat_batch,
    encode_sequences,
    pad_sequences,
)
from hse.tensorkit import Tape, Tensor, finite_diff_check
from hse.training import init_params


def zero_gru(input_dim, hidden_dim) -> GruParams:
    """A GRU with all-zero weights, built as the model builds its GRUs."""
    return build_params(ModelDims(input_dim, 1, hidden_dim, 1)).enc_v_low


def random_gru(rng, input_dim, hidden_dim):
    """A GRU with N(0, 0.4^2) weights and biases, drawn gate by gate."""
    p = zero_gru(input_dim, hidden_dim)
    for _, view in p.views("g"):
        view[...] = rng.normal(0.0, 0.4, size=view.shape)
    return p


def per_gate(p: GruParams, dtype=float) -> dict[str, np.ndarray]:
    """The nine per-gate weights of p (w_z, u_z, b_z, ...) as C-contiguous
    copies of its views, the form oracles.ref_gru_step takes."""
    return {name[2:]: np.array(view, dtype=dtype, order="C") for name, view in p.views("g")}


def one_step(p: GruParams, x, h) -> np.ndarray:
    """One update of the state h [H] on the input x [D], run through
    tensorkit.gru_sequence at T = 1."""
    x, h = Tensor(np.asarray(x)[None, None, :]), Tensor(np.asarray(h)[None, :])
    return tk.gru_sequence(x, [1], p.weights(), h).values[0, 0]


def oracle_states(p: GruParams, x, lengths) -> np.ndarray:
    """The states of oracles.ref_gru_run over the padded batch x from zero
    initial states."""
    h0 = np.zeros((x.shape[0], p.hidden_dim))
    dstates = np.zeros(x.shape[:2] + h0.shape[1:])
    blocks = [t.values for t in p.weights()]
    return oracles.ref_gru_run(x, lengths, *blocks, h0, dstates, tk._WINDOW)[0]


def complex_step_grads(f, arrays, step=1e-20) -> list[np.ndarray]:
    """The gradient of the real scalar f() with respect to each complex array
    it reads: Im f(a + i*step*e_k) / step per entry k (Squire & Trapp, SIAM
    Review 1998). It has no subtractive cancellation, so it is exact to
    rounding, and it shares nothing with a hand-written backward pass."""
    grads = []
    for a in arrays:
        g = np.zeros(a.shape)
        for k in np.ndindex(a.shape):
            a[k] += 1j * step
            g[k] = f().imag / step
            a[k] -= 1j * step
        grads.append(g)
    return grads


class TestGruStep:
    """One step of tensorkit.gru_sequence (T = 1)."""

    def test_zero_weights_halve_the_state(self):
        p = zero_gru(2, 2)
        h = np.array([0.4, -0.2])
        assert one_step(p, np.zeros(2), h).tolist() == [0.2, -0.1]
        assert oracles.ref_gru_step(per_gate(p), np.zeros(2), h).tolist() == [0.2, -0.1]

    def test_zero_state_is_fixed_point_of_zero_weights(self):
        p = zero_gru(3, 3)
        assert one_step(p, np.zeros(3), np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(3)
        p = random_gru(rng, 4, 3)
        x = rng.normal(size=4)
        h = rng.normal(size=3)
        want = oracles.ref_gru_step(per_gate(p), x, h)
        assert np.allclose(one_step(p, x, h), want, rtol=0.0, atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        p = random_gru(rng, 3, 3)
        x = Tensor(rng.normal(size=(1, 1, 3)), requires_grad=True)
        h = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        weight = rng.normal(size=(1, 1, 3))

        def f(ps):
            return oracles.probe(tk.gru_sequence(x, [1], p.weights(), h), weight)

        assert finite_diff_check(f, [*p.weights(), x, h]).max_rel_err < 1e-4


def ragged_batch(rng, input_dim, steps):
    """One row per length 1..steps, in shuffled order, zero-padded."""
    lengths = rng.permutation(np.arange(1, steps + 1))
    x = rng.normal(size=(steps, steps, input_dim))
    x[np.arange(steps)[None, :] >= lengths[:, None]] = 0.0
    return x, [int(n) for n in lengths]


class TestGruSequence:
    def test_matches_gru_step_loop_on_ragged_batch(self):
        rng = np.random.default_rng(21)
        p = random_gru(rng, 3, 4)
        x, lengths = ragged_batch(rng, 3, 5)
        h0 = rng.normal(size=(5, 4))
        states = tk.gru_sequence(Tensor(x), lengths, p.weights(), Tensor(h0)).values
        gates = per_gate(p)
        for b, n in enumerate(lengths):
            h = h0[b]
            for step in range(5):
                if step < n:
                    h = oracles.ref_gru_step(gates, x[b, step], h)
                    assert np.allclose(states[b, step], h, rtol=0.0, atol=1e-12)
                else:  # padding carries the last state unchanged
                    assert np.array_equal(states[b, step], states[b, n - 1])

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(22)
        p = random_gru(rng, 3, 4)
        x_values, lengths = ragged_batch(rng, 3, 4)
        x = Tensor(x_values, requires_grad=True)
        h0 = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        weight = rng.normal(size=(4, 4, 4))

        def f(ps):
            return oracles.probe(tk.gru_sequence(x, lengths, p.weights(), h0), weight)

        report = finite_diff_check(f, [*p.weights(), x, h0])
        assert report.max_rel_err < 1e-4

    def test_one_tape_record_per_run(self):
        rng = np.random.default_rng(23)
        p = random_gru(rng, 2, 3)
        x, lengths = ragged_batch(rng, 2, 4)
        with Tape() as tape:
            tk.gru_sequence(Tensor(x), lengths, p.weights())
        assert len(tape) == 1

    def test_shape_errors(self):
        p = zero_gru(2, 3)
        with pytest.raises(ShapeError):
            tk.gru_sequence(Tensor(np.zeros((2, 4, 5))), [4, 4], p.weights())
        with pytest.raises(ShapeError):
            tk.gru_sequence(Tensor(np.zeros((2, 4, 2))), [4, 5], p.weights())
        with pytest.raises(ShapeError):
            tk.gru_sequence(Tensor(np.zeros((2, 4, 2))), [0, 4], p.weights())
        with pytest.raises(ShapeError):
            tk.gru_sequence(Tensor(np.zeros((2, 4, 2))), [4, 4], p.weights(), Tensor(np.zeros((1, 3))))


def run_and_pool(p, x, lengths, h0, taped):
    """States and pooled rows of two kernel runs, unpooled and pooled, with
    or without a tape."""

    def runs():
        args = (Tensor(x), lengths, p.weights(), Tensor(h0))
        return tk.gru_sequence(*args).values, tk.gru_sequence(*args, pool=True).values

    if taped:
        with Tape():
            return runs()
    return runs()


# hidden sizes whose recurrent products (widths 2H and H) have every column
# tail, taped and not; H = 4 keeps the ids [False] and [True]
PERMUTED = [(taped, hid) for hid in (4, 16, 17, 18, 19, 25, 32) for taped in (False, True)]


class TestPackedKernel:
    """Rows are sorted longest first inside gru_sequence, and each step's
    recurrent products are one GEMM over the rows still running; none of
    that may show in the results."""

    @pytest.mark.parametrize(
        "taped, hid", PERMUTED, ids=[f"{t}" if h == 4 else f"{t}-h{h}" for t, h in PERMUTED]
    )
    def test_permuting_rows_permutes_states_and_pooled_rows(self, taped, hid):
        rng = np.random.default_rng(31)
        p = random_gru(rng, 3, hid)
        # the second batch's lengths cross the input-term window boundary
        assert tk._WINDOW < 40
        for steps in (6, 40):
            x, lengths = ragged_batch(rng, 3, steps)
            assert lengths != sorted(lengths, reverse=True)
            h0 = rng.normal(size=(steps, hid))
            states, pooled = run_and_pool(p, x, lengths, h0, taped)
            perm = rng.permutation(steps)
            p_states, p_pooled = run_and_pool(
                p, x[perm], [lengths[i] for i in perm], h0[perm], taped
            )
            assert np.array_equal(p_states, states[perm])
            assert np.array_equal(p_pooled, pooled[perm])
            for row, n in enumerate(lengths):  # a row run alone
                alone, alone_pooled = run_and_pool(
                    p, x[row : row + 1, :n], [n], h0[row : row + 1], taped
                )
                assert np.array_equal(alone[0], states[row, :n])
                assert np.array_equal(alone_pooled[0], pooled[row])

    @pytest.mark.parametrize("hid", [4, 17, 18, 32])
    def test_padded_product_rows_do_not_depend_on_the_batch(self, hid):
        """A row of a recurrent product, over the columns as gru_sequence
        pads them, has the same bits in a batch of 2, 37 or 200 rows at its
        first, middle and last position as alone beside a zero row: the
        property of this BLAS that the kernel's batch invariance rests on."""
        rng = np.random.default_rng(43)
        for width in (2 * hid, hid):
            u = tk._padded_columns(rng.normal(size=(hid, width)))
            assert u.shape[1] % 4 == 0 and u.flags.c_contiguous
            for row in rng.normal(size=(3, hid)):
                want = (np.stack([row, np.zeros(hid)]) @ u)[0]
                for m in (2, 37, 200):
                    batch = rng.normal(size=(m, hid))
                    for at in (0, m // 2, m - 1):
                        batch[at] = row
                        assert np.array_equal((batch @ u)[at], want), (width, m, at)

    def test_saturated_gates_reach_their_limits_without_warnings(self):
        """A gate's exp(-v) overflows for v below -709.78; the gate is then
        0 exactly, and every state is h0 carried through unchanged."""
        rng = np.random.default_rng(44)
        p = random_gru(rng, 3, 4)
        p.b.values[:4] = -800.0  # z = 0: every state equals h0
        x, lengths = ragged_batch(rng, 3, 5)
        h0 = rng.normal(size=(5, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for taped in (False, True):
                states, pooled = run_and_pool(p, x, lengths, h0, taped)
                assert np.array_equal(states, np.broadcast_to(h0[:, None], states.shape))
                assert np.array_equal(pooled, h0)

    def test_sorted_and_shuffled_batches_agree(self):
        rng = np.random.default_rng(32)
        p = random_gru(rng, 2, 5)
        lengths = [5, 5, 4, 2, 2, 1]  # already longest first: no reordering
        x = rng.normal(size=(6, 5, 2))
        x[np.arange(5)[None, :] >= np.array(lengths)[:, None]] = 0.0
        h0 = rng.normal(size=(6, 5))
        perm = np.array([3, 0, 5, 1, 4, 2])
        for taped in (False, True):
            states, pooled = run_and_pool(p, x, lengths, h0, taped)
            s_states, s_pooled = run_and_pool(
                p, x[perm], [lengths[i] for i in perm], h0[perm], taped
            )
            for row, src in enumerate(perm):
                assert np.array_equal(s_states[row], states[src])
                assert np.array_equal(s_pooled[row], pooled[src])

    def test_tape_free_masked_max_equals_taped(self):
        """The pooled kernel keeps a running maximum when nothing records and
        each maximum's first step when a tape does; both give the maximum
        over each row's valid steps, ties included."""
        rng = np.random.default_rng(33)
        p = random_gru(rng, 3, 4)
        p.b.values[:2] = -700.0  # channels 0-1 keep h0 exactly: a tie at every step
        x, lengths = ragged_batch(rng, 3, 5)
        h0 = rng.normal(size=(5, 4))
        states, free = run_and_pool(p, x, lengths, h0, False)
        _, taped = run_and_pool(p, x, lengths, h0, True)
        assert np.array_equal(free, taped)
        masked_max = np.stack([states[row, :n].max(axis=0) for row, n in enumerate(lengths)])
        assert np.array_equal(free, masked_max)
        assert np.array_equal(free[:, :2], h0[:, :2])

    def test_gradients_match_gru_step_loop(self):
        """The kernel's gradients equal complex-step derivatives of a loop of
        oracles.ref_gru_step, a route independent of its backward pass."""
        rng = np.random.default_rng(34)
        p = random_gru(rng, 3, 4)
        x_values, lengths = ragged_batch(rng, 3, 5)
        h0_values = rng.normal(size=(5, 4))
        weight = rng.normal(size=(5, 5, 4))

        x = Tensor(x_values, requires_grad=True)
        h0 = Tensor(h0_values, requires_grad=True)
        tk.zero_grads(p.weights())
        with Tape():
            states = tk.gru_sequence(x, lengths, p.weights(), h0)
            tk.backward(oracles.probe(states, weight))
        # the kernel's block gradients, read gate by gate as the loop has them
        blocks = GruParams(*(Tensor(t.grad) for t in p.weights()))
        kernel = [v for _, v in blocks.views("g")] + [x.grad, h0.grad]

        gates = per_gate(p, complex)
        xc, h0c = x_values.astype(complex), h0_values.astype(complex)

        def loop_loss():
            total = 0.0
            for b, n in enumerate(lengths):
                h = h0c[b]
                for step in range(5):
                    if step < n:  # padding carries the last state
                        h = oracles.ref_gru_step(gates, xc[b, step], h)
                    total = total + np.sum(h * weight[b, step])
            return total

        loop = complex_step_grads(loop_loss, [*gates.values(), xc, h0c])
        for got, want in zip(kernel, loop, strict=True):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_no_input_equals_zero_input(self):
        rng = np.random.default_rng(35)
        p = random_gru(rng, 1, 4)
        lengths = [2, 4, 1]
        h0_values = rng.normal(size=(3, 4))
        weight = rng.normal(size=(3, 4, 4))
        results = []
        for x in (None, Tensor(np.zeros((3, 4, 1)))):
            h0 = Tensor(h0_values, requires_grad=True)
            tk.zero_grads(p.weights())
            with Tape():
                states = tk.gru_sequence(x, lengths, p.weights(), h0)
                tk.backward(oracles.probe(states, weight))
            results.append([states.values, h0.grad] + [g.grad for g in p.weights()])
        for got, want in zip(*results):
            assert np.array_equal(got, want)
        assert np.array_equal(p.w.grad, np.zeros((1, 12)))  # still handed to the optimizer


class TestKernelBitOracle:
    """gru_sequence equals oracles.ref_gru_run to the last bit: states,
    pooled rows and all six gradients. The oracle writes every expression
    with one temporary per operation, so a kernel step that reorders an
    operation fails here. The run must also leave the gradient it was handed
    as it was: with one row or one step, a [B, T, H] array's transpose is
    C-contiguous, so a time-major "copy" of it could be the array itself."""

    @pytest.mark.parametrize(
        "case", ["ragged", "no-input", "long", "wide", "single-row", "single-step"]
    )
    def test_run_equals_oracle(self, case):
        rng = np.random.default_rng(41)
        # wide: H = 17, so both recurrent products' columns are padded
        dim, hid = 3, 17 if case == "wide" else 4
        if case == "long":  # rows ending before, at and after window boundaries
            lengths = [33, 1, 70, 32, 64, 65, 7]
            assert tk._WINDOW in lengths and 2 * tk._WINDOW < max(lengths)
        elif case == "single-row":
            lengths = [6]
        elif case == "single-step":
            lengths = [1] * 6
        else:
            lengths = [3, 6, 1, 5, 6, 2]
        steps = max(lengths)
        p = random_gru(rng, dim, hid)
        x_values = None
        if case != "no-input":
            x_values = rng.normal(size=(len(lengths), steps, dim))
            x_values[np.arange(steps)[None, :] >= np.array(lengths)[:, None]] = 0.0
        h0_values = rng.normal(size=(len(lengths), hid))
        weight = rng.normal(size=(len(lengths), steps, hid))

        x = None if x_values is None else Tensor(x_values, requires_grad=True)
        h0 = Tensor(h0_values, requires_grad=True)
        tk.zero_grads(p.weights())
        with Tape():
            states = tk.gru_sequence(x, lengths, p.weights(), h0)
            tk.backward(oracles.probe(states, weight))
        free_x = None if x_values is None else Tensor(x_values)
        free = tk.gru_sequence(free_x, lengths, p.weights(), Tensor(h0_values))
        pooled = tk.gru_sequence(free_x, lengths, p.weights(), Tensor(h0_values), pool=True)

        blocks = [t.values for t in p.weights()]
        want_states, want_pooled, want_grads = oracles.ref_gru_run(
            x_values, lengths, *blocks, h0_values, weight, tk._WINDOW
        )
        assert np.array_equal(states.grad, weight)
        assert np.array_equal(states.values, want_states)
        assert np.array_equal(free.values, want_states)
        assert np.array_equal(pooled.values, want_pooled)
        got = [t.grad for t in p.weights()] + [None if x is None else x.grad, h0.grad]
        for name, g, want in zip(("w", "u_zr", "u_c", "b", "x", "h0"), got, want_grads, strict=True):
            if want is None:
                assert g is None, name
            else:
                assert np.array_equal(g, want), name


    # (run A, run B) of each paired case: each run's lengths and input width
    # (0: no input, the decoder form), and NO_H0 for a run that starts from
    # zero with no initial-state tensor, as the encoders do (every other run
    # gets one)
    NO_H0 = "no-h0"
    PAIRS = {
        "a-ends-first": (([3, 6, 1, 5], 3), ([7, 2, 8, 4, 8], 5)),
        "b-ends-first": (([9, 2, 7], 2), ([4, 1, 3, 4, 2, 2], 4)),
        "decoder": (([2, 4, 1], 0), ([3, 3, 5, 1], 0)),
        # H = 17 and 25: the backward products' widths give a row other bits
        # at another position, so run A's reversed rows must be copied
        "h17": (([3, 6, 1, 5, 6, 2, 4, 6, 3], 3), ([5, 2, 6, 6, 1], 6)),
        "h25": (([2, 5, 5, 1, 4, 3, 5, 5], 4), ([4, 3, 4, 1, 2, 4, 4], 2)),
        "lone-a": (([5], 3), ([3, 5, 2, 4], 2)),  # beside a spare row
        "lone-b": (([3, 5, 2, 4], 2), ([6], 3)),
        "one-row-tail": (([2, 9, 3], 2), ([4, 4, 5], 3)),  # A runs one row from step 3
        "one-run": (([3, 6, 1, 5, 6, 2], 3),),
        "one-run-no-h0": (([3, 6, 1, 5, 6, 2], 3, NO_H0),),
        "no-h0": (([3, 6, 1, 5], 3, NO_H0), ([7, 2, 8, 4, 8], 5, NO_H0)),
        "h0-on-a": (([9, 2, 7], 2), ([4, 1, 3, 4, 2, 2], 4, NO_H0)),
        "h0-on-b": (([9, 2, 7], 2, NO_H0), ([4, 1, 3, 4, 2, 2], 4)),
    }

    @pytest.mark.parametrize("pool", [False, True], ids=["states", "pooled"])
    @pytest.mark.parametrize("case", list(PAIRS))
    def test_paired_runs_equal_oracle_alone(self, case, pool):
        """Each run of a gru_runs call equals oracles.ref_gru_run of that run
        alone, bit for bit: states or pooled rows, all six gradients, and the
        gradient handed to it left as it was. A run without h0 equals the
        oracle's run from a zero h0, and has no h0 gradient."""
        rng = np.random.default_rng(43)
        hid = {"h17": 17, "h25": 25}.get(case, 4)
        runs = []
        for lengths, dim, *marks in self.PAIRS[case]:
            steps, bsz = max(lengths), len(lengths)
            p = random_gru(rng, max(dim, 1), hid)
            x_values = None
            if dim:
                x_values = rng.normal(size=(bsz, steps, dim))
                x_values[np.arange(steps)[None, :] >= np.array(lengths)[:, None]] = 0.0
            h0_values = None if self.NO_H0 in marks else rng.normal(size=(bsz, hid))
            weight = rng.normal(size=(bsz, hid) if pool else (bsz, steps, hid))
            runs.append((p, lengths, x_values, h0_values, weight))

        tensors = []
        for p, lengths, x_values, h0_values, _ in runs:
            tk.zero_grads(p.weights())
            x = None if x_values is None else Tensor(x_values, requires_grad=True)
            h0 = None if h0_values is None else Tensor(h0_values, requires_grad=True)
            tensors.append((x, h0))
        with Tape() as tape:
            outs = tk.gru_runs(
                [(x, lengths, p.weights(), h0) for (p, lengths, *_), (x, h0) in zip(runs, tensors)], pool
            )
            assert len(tape) == 1
            probes = [oracles.probe(out, run[4]) for out, run in zip(outs, runs)]
            tk.backward(tk.add(*probes) if len(probes) == 2 else probes[0])
        free = tk.gru_runs(
            [
                (
                    None if x is None else Tensor(x),
                    lengths,
                    p.weights(),
                    None if h0 is None else Tensor(h0),
                )
                for p, lengths, x, h0, _ in runs
            ],
            pool,
        )

        for (p, lengths, x_values, h0_values, weight), (x, h0), out, free_out in zip(
            runs, tensors, outs, free, strict=True
        ):
            blocks = [t.values for t in p.weights()]
            ref_h0 = np.zeros((len(lengths), hid)) if h0_values is None else h0_values
            dstates = weight
            if pool:  # the pooled gradient, at each channel's first maximum
                states = oracles.ref_gru_run(
                    x_values, lengths, *blocks, ref_h0, np.zeros((len(lengths), max(lengths), hid)),
                    tk._WINDOW,
                )[0]
                dstates = np.zeros_like(states)
                for row, n in enumerate(lengths):
                    dstates[row, np.argmax(states[row, :n], axis=0), np.arange(hid)] = weight[row]
            want_states, want_pooled, want_grads = oracles.ref_gru_run(
                x_values, lengths, *blocks, ref_h0, dstates, tk._WINDOW
            )
            if h0 is None:
                want_grads = want_grads[:5] + (None,)
            want = want_pooled if pool else want_states
            assert np.array_equal(out.grad, weight)
            assert np.array_equal(out.values, want)
            assert np.array_equal(free_out.values, want)
            got = [t.grad for t in p.weights()]
            got += [None if x is None else x.grad, None if h0 is None else h0.grad]
            for name, g, w in zip(("w", "u_zr", "u_c", "b", "x", "h0"), got, want_grads, strict=True):
                if w is None:
                    assert g is None, name
                else:
                    assert np.array_equal(g, w), name


class TestPooledKernel:
    """gru_sequence(..., pool=True) keeps a running maximum of the states;
    its rows must be the oracle's pooled rows, and its gradient that of
    the states at each maximum's first step."""

    def pooled_batch(self):
        rng = np.random.default_rng(36)
        p = random_gru(rng, 3, 4)
        p.b.values[:2] = -700.0  # z is ~1e-304: channels 0-1 keep h0 exactly, a tie at every step
        x, lengths = ragged_batch(rng, 3, 6)
        assert lengths != sorted(lengths, reverse=True)
        return p, x, lengths, rng.normal(size=(6, 4)), rng.normal(size=(6, 4))

    def oracle_run(self, p, x, lengths, h0):
        """The oracle's states and pooled rows."""
        blocks = [t.values for t in p.weights()]
        dstates = np.zeros(x.shape[:2] + h0.shape[1:])
        return oracles.ref_gru_run(x, lengths, *blocks, h0, dstates, tk._WINDOW)[:2]

    def test_tape_free_pool_equals_masked_max(self):
        p, x, lengths, h0, _ = self.pooled_batch()
        states, want = self.oracle_run(p, x, lengths, h0)
        masked_max = np.stack([states[row, :n].max(axis=0) for row, n in enumerate(lengths)])
        pooled = tk.gru_sequence(Tensor(x), lengths, p.weights(), Tensor(h0), pool=True)
        assert np.array_equal(pooled.values, want)
        assert np.array_equal(pooled.values, masked_max)
        assert np.array_equal(pooled.values[:, :2], h0[:, :2])

    def test_taped_pool_gradients_are_those_at_the_first_maximum(self):
        p, x_values, lengths, h0_values, weight = self.pooled_batch()
        states, _ = self.oracle_run(p, x_values, lengths, h0_values)
        # the upstream gradient of the states, at each row's first maximum
        # over its valid steps, channel by channel
        dstates = np.zeros_like(states)
        for row, n in enumerate(lengths):
            first = np.argmax(states[row, :n], axis=0)
            dstates[row, first, np.arange(4)] = weight[row]
        assert np.all(np.argmax(dstates[:, :, :2] != 0.0, axis=1) == 0)  # the ties go to step 0

        def run(pool):
            x = Tensor(x_values, requires_grad=True)
            h0 = Tensor(h0_values, requires_grad=True)
            tk.zero_grads(p.weights())
            with Tape():
                if pool:
                    pooled = tk.gru_sequence(x, lengths, p.weights(), h0, pool=True)
                    tk.backward(oracles.probe(pooled, weight))
                else:
                    states = tk.gru_sequence(x, lengths, p.weights(), h0)
                    tk.backward(oracles.probe(states, dstates))
            return [x.grad, h0.grad] + [g.grad.copy() for g in p.weights()]

        for got, want in zip(run(True), run(False), strict=True):
            assert np.array_equal(got, want)

    def test_taped_pooled_run_is_one_tape_record(self):
        p, x, lengths, h0, _ = self.pooled_batch()
        x, h0 = Tensor(x, requires_grad=True), Tensor(h0, requires_grad=True)
        with Tape() as tape:
            pooled = tk.gru_sequence(x, lengths, p.weights(), h0, pool=True)
        assert len(tape) == 1 and pooled.shape == (6, 4)

    def test_taped_pool_memory_is_bounded(self):
        """One taped pooled forward and backward at weak-ragged's low-level
        shape peaks below 12.63 [B, T, H] float64 buffers, the peak of the
        kernel's batch-major tape. The time-major one, whose states start
        from the initial state at step 0, peaks at 11.40. A fresh h_prev and
        rs * h_prev beside the time-major tape's gradient buffer would peak
        at 13.9."""
        bsz, steps, dim, hid = 56, 8, 16, 32
        rng = np.random.default_rng(38)
        p = random_gru(rng, dim, hid)
        lengths = rng.permutation(np.arange(bsz) % (steps - 1) + 2)  # 2..8, 8 rows each
        x = rng.normal(size=(bsz, steps, dim))
        x[np.arange(steps)[None, :] >= lengths[:, None]] = 0.0
        x, weight, weights = Tensor(x), rng.normal(size=(bsz, hid)), p.weights()
        tracemalloc.start()
        try:
            with Tape():
                tk.backward(oracles.probe(tk.gru_sequence(x, lengths, weights, pool=True), weight))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12.63 * bsz * steps * hid * 8

    def test_tape_free_pool_memory_does_not_grow_with_steps(self):
        bsz, steps, dim, hid = 4, 2000, 2, 8
        rng = np.random.default_rng(37)
        p = random_gru(rng, dim, hid)
        lengths = [steps, 1500, 700, 3]  # already longest first: x is not copied
        x = Tensor(rng.normal(size=(bsz, steps, dim)))
        weights = p.weights()
        tracemalloc.start()
        try:
            tk.gru_sequence(x, lengths, weights, pool=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a [B, T, H] state buffer alone would take B*T*H*8 bytes
        assert peak < bsz * steps * hid * 8 / 4


class TestPadSequences:
    def test_equals_copying_each_sequence(self):
        rng = np.random.default_rng(38)
        seqs = [rng.normal(size=(n, 3)) for n in (2, 5, 1)]
        padded, lengths = pad_sequences(seqs)
        assert lengths == [2, 5, 1]
        want = np.zeros((3, 5, 3))
        for b, s in enumerate(seqs):
            want[b, : len(s)] = s
        assert np.array_equal(padded, want)

    @pytest.mark.parametrize(
        "seqs",
        [
            [np.zeros((2, 3)), np.zeros((1, 4))],  # widths differ
            [np.zeros((2, 3)), np.zeros(3)],  # ranks differ
            [np.zeros(3), np.zeros(2)],  # not [T, D]
            [np.zeros((2, 3)), np.zeros((0, 3))],  # an empty sequence
        ],
    )
    def test_bad_shapes_rejected(self, seqs):
        with pytest.raises(ShapeError, match="nonempty \\[T, D\\] arrays of one width"):
            pad_sequences(seqs)


class TestEncodeSequence:
    @pytest.mark.parametrize("hid", [3, 4, 5, 6])
    def test_single_element_equals_one_step(self, hid):
        rng = np.random.default_rng(1)
        p = random_gru(rng, 3, hid)
        x = rng.normal(size=3)
        single = encode_sequences(p, [x[None, :]])
        assert np.array_equal(single.values[0], oracle_states(p, x[None, None, :], [1])[0, 0])

    def test_pooling_is_channelwise_max_of_steps(self):
        rng = np.random.default_rng(2)
        p = random_gru(rng, 2, 3)
        xs = [rng.normal(size=2) for _ in range(5)]
        h = np.zeros(3)
        outputs = []
        gates = per_gate(p)
        for x in xs:
            h = oracles.ref_gru_step(gates, x, h)
            outputs.append(h)
        expected = np.max(np.stack(outputs), axis=0)
        assert np.allclose(encode_sequences(p, [np.stack(xs)]).values[0], expected, atol=1e-12)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ContractError):
            encode_sequences(zero_gru(2, 2), [])
        with pytest.raises(ShapeError):
            encode_sequences(zero_gru(2, 2), [np.zeros((0, 2))])


class TestEncodeFlat:
    def test_single_frame_video(self):
        rng = np.random.default_rng(5)
        dims = ModelDims(d_v=3, d_t=3, hidden_low=4, hidden_high=4)
        params = init_params(dims, 0)
        frame = rng.normal(size=3)
        video = VideoSample("v", [frame.reshape(1, 3)])
        (flat,) = encode_flat_batch(params, [video])
        direct = oracle_states(params.enc_v_low, frame[None, None, :], [1])[0, 0]
        assert np.array_equal(flat.values[0], direct)

    def test_equals_manual_flattening(self):
        rng = np.random.default_rng(6)
        dims = ModelDims(d_v=3, d_t=3, hidden_low=4, hidden_high=4)
        params = init_params(dims, 1)
        clips = [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))]
        video = VideoSample("v", clips)
        (flat,) = encode_flat_batch(params, [video])
        manual = encode_sequences(params.enc_v_low, [np.stack([r for c in clips for r in c])])
        assert np.array_equal(flat.values, manual.values)

    def test_sensitive_to_clip_order(self):
        rng = np.random.default_rng(7)
        dims = ModelDims(d_v=3, d_t=3, hidden_low=4, hidden_high=4)
        params = init_params(dims, 2)
        clips = [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))]
        (flat,) = encode_flat_batch(
            params, [VideoSample("v", clips), VideoSample("v", clips[::-1])]
        )
        a, b = flat.values
        assert not np.array_equal(a, b)

    def test_paragraphs_use_the_text_encoder(self):
        rng = np.random.default_rng(9)
        dims = ModelDims(d_v=3, d_t=3, hidden_low=4, hidden_high=4)
        params = init_params(dims, 4)
        sentences = [rng.normal(size=(2, 3)), rng.normal(size=(1, 3))]
        (flat,) = encode_flat_batch(params, [ParagraphSample("p", sentences)])
        manual = encode_sequences(params.enc_p_low, [np.concatenate(sentences)])
        assert np.array_equal(flat.values, manual.values)
        video = encode_sequences(params.enc_v_low, [np.concatenate(sentences)])
        assert not np.array_equal(flat.values, video.values)

    def test_mixed_or_empty_batch_rejected(self):
        params = init_params(ModelDims(d_v=3, d_t=3, hidden_low=4, hidden_high=4), 4)
        frames = np.zeros((1, 3))
        with pytest.raises(ContractError, match="one modality"):
            encode_flat_batch(params, [VideoSample("v", [frames]), ParagraphSample("p", [frames])])
        with pytest.raises(ContractError, match="at least one sample"):
            encode_flat_batch(params, [])


class TestEncodeHierarchical:
    def setup_method(self):
        self.rng = np.random.default_rng(8)
        self.dims = ModelDims(d_v=4, d_t=3, hidden_low=5, hidden_high=6)
        self.params = init_params(self.dims, 3)

    def _video(self, n=3):
        return VideoSample(
            "v", [self.rng.normal(size=(int(self.rng.integers(1, 4)), 4)) for _ in range(n)]
        )

    def test_single_clip_high_embedding(self):
        video = self._video(n=1)
        (emb,) = encode_batch(self.params, [video])
        direct = encode_sequences(self.params.enc_v_high, [emb.low.values])
        assert np.array_equal(emb.high.values, direct.values)

    def test_low_embeddings_are_local(self):
        video = self._video(n=3)
        before = encode_batch(self.params, [video])[0].low.values
        perturbed = VideoSample(
            "v", [video.clips[0], video.clips[1] + 1.0, video.clips[2]]
        )
        after = encode_batch(self.params, [perturbed])[0].low.values
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[2], after[2])
        assert not np.array_equal(before[1], after[1])

    def test_permuting_clips_permutes_low_and_changes_high(self):
        video = self._video(n=3)
        (base,) = encode_batch(self.params, [video])
        perm = [2, 0, 1]
        (permuted,) = encode_batch(
            self.params, [VideoSample("v", [video.clips[i] for i in perm])]
        )
        assert np.array_equal(permuted.low.values, base.low.values[perm])
        assert not np.array_equal(permuted.high.values, base.high.values)

    def test_paragraph_side_uses_text_encoders(self):
        paragraph = ParagraphSample("p", [self.rng.normal(size=(2, 3)) for _ in range(2)])
        (emb,) = encode_batch(self.params, [paragraph])
        assert emb.high.values.shape == (1, 6)
        assert emb.low.values.shape == (2, 5)
        assert emb.counts == [2]

    def test_encoder_gradients_vs_finite_differences(self):
        video = self._video(n=2)
        weight = self.rng.normal(size=(1, 6))
        enc_params = [t for _, t in self.params.enc_v_low.named("a")] + [
            t for _, t in self.params.enc_v_high.named("b")
        ]

        def f(ps):
            return oracles.probe(encode_batch(self.params, [video])[0].high, weight)

        assert finite_diff_check(f, enc_params).max_rel_err < 1e-4


class TestEncodeBatch:
    def setup_method(self):
        self.rng = np.random.default_rng(24)
        self.params = init_params(ModelDims(d_v=4, d_t=3, hidden_low=5, hidden_high=6), 4)

    def _videos(self, k):
        return [
            VideoSample(
                f"v{i}",
                [self.rng.normal(size=(int(self.rng.integers(1, 6)), 4))
                 for _ in range(int(self.rng.integers(1, 5)))],
            )
            for i in range(k)
        ]

    def test_sample_alone_equals_sample_in_ragged_batch(self):
        videos = self._videos(6)
        (batch,) = encode_batch(self.params, videos)
        assert batch.counts == [video.n for video in videos]
        start = 0
        for k, video in enumerate(videos):
            (alone,) = encode_batch(self.params, [video])
            in_batch_high = batch.high.values[k : k + 1]
            assert np.allclose(alone.high.values, in_batch_high, rtol=0.0, atol=1e-12)
            # rows are multiplied one at a time, so the match is exact
            assert np.array_equal(alone.high.values, in_batch_high)
            assert np.array_equal(alone.low.values, batch.low.values[start : start + video.n])
            start += video.n

    def test_units_are_the_padded_clips(self):
        videos = self._videos(5)
        (batch,) = encode_batch(self.params, videos)
        units, lengths = pad_sequences([clip for video in videos for clip in video.clips])
        assert batch.lengths == lengths
        assert np.array_equal(batch.units, units)

    def test_mixed_modalities_rejected(self):
        video = self._videos(1)[0]
        paragraph = ParagraphSample("p", [self.rng.normal(size=(2, 3))])
        with pytest.raises(ContractError):
            encode_batch(self.params, [video, paragraph])


class TestDecodeHierarchical:
    def setup_method(self):
        self.dims = ModelDims(d_v=3, d_t=4, hidden_low=4, hidden_high=5)
        self.params = init_params(self.dims, 5)
        self.rng = np.random.default_rng(11)

    def test_single_unit_counts(self):
        high = Tensor(self.rng.normal(size=(1, 5)))
        (decoded,) = decode_batch(self.params, (high, [1], [1], "video"))
        assert decoded.low.values.shape == (1, 4)
        assert decoded.lengths == [1]
        assert decoded.units.values.shape == (1, 3)

    def test_counts_match_requested_lengths(self):
        high = Tensor(self.rng.normal(size=(1, 5)))
        n_i = [2, 1, 3]
        (decoded,) = decode_batch(self.params, (high, [3], n_i, "text"))
        assert decoded.low.values.shape == (3, 4)
        assert decoded.lengths == n_i
        assert decoded.steps == 3
        assert decoded.units.values.shape == (3 * 3, 4)  # steps rows per unit, padded

    def test_zero_counts_rejected(self):
        high = Tensor(np.zeros((1, 5)))
        with pytest.raises(ContractError):
            decode_batch(self.params, (high, [0], [], "video"))
        with pytest.raises(ContractError):
            decode_batch(self.params, (high, [2], [1, 0], "video"))

    def test_unknown_modality(self):
        with pytest.raises(ContractError):
            decode_batch(self.params, (Tensor(np.zeros((1, 5))), [1], [1], "audio"))

    def test_decoder_gradients_vs_finite_differences(self):
        high = Tensor(self.rng.normal(size=(1, 5)))
        dec_params = [t for _, t in self.params.dec_v_high.named("h")] + [
            t for _, t in self.params.dec_v_low.named("l")
        ]
        generated = [0, 1, 2]  # two rows per unit; row 3 is unit 1's padding

        def f(ps):
            (decoded,) = decode_batch(self.params, (high, [2], [2, 1], "video"))
            units = tk.take(decoded.units, generated)
            return tk.add(
                oracles.probe(decoded.low, np.ones(decoded.low.shape)),
                oracles.probe(units, np.ones(units.shape)),
            )

        assert finite_diff_check(f, dec_params).max_rel_err < 1e-4


class TestParamStructure:
    def test_named_parameter_order_is_stable(self):
        dims = ModelDims(d_v=2, d_t=3, hidden_low=4, hidden_high=5)
        params = build_params(dims)
        names = [n for n, _ in params.checkpoint_views()]
        assert names[:3] == ["enc_v_low.w_z", "enc_v_low.u_z", "enc_v_low.b_z"]
        assert names[-2:] == ["dec_p_low.out_w", "dec_p_low.out_b"]
        assert len(names) == 4 * 9 + 4 * 11
        names = [n for n, _ in params.named_parameters()]
        assert names[:4] == ["enc_v_low.w", "enc_v_low.u_zr", "enc_v_low.u_c", "enc_v_low.b"]
        assert names[-2:] == ["dec_p_low.out_w", "dec_p_low.out_b"]
        assert len(names) == 4 * 4 + 4 * 6

    def test_weights_tile_one_flat_buffer(self, tmp_path):
        dims = ModelDims(d_v=2, d_t=3, hidden_low=4, hidden_high=5)
        built = init_params(dims, 3)
        save_checkpoint(built, tmp_path / "model.bin")
        for params in (built, load_checkpoint(tmp_path / "model.bin")):
            offset = 0
            for name, t in params.named_parameters():
                assert t.values.base is params.values and t.values.flags.c_contiguous, name
                assert t.values.ctypes.data == params.values[offset:].ctypes.data, name
                offset += t.values.size
            assert offset == params.values.size
        assert params.values.tobytes() == built.values.tobytes()

    def test_embeddings_are_finite_checked(self):
        dims = ModelDims(d_v=2, d_t=2, hidden_low=2, hidden_high=2)
        params = init_params(dims, 0)
        video = VideoSample("v", [np.full((1, 2), np.nan)])
        with pytest.raises(Exception, match="non-finite"):
            encode_batch(params, [video])
