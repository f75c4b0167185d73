import numpy as np
import pytest

from hse import tensorkit as tk
from hse.errors import ContractError, ShapeError
from hse.tensorkit import Tape, Tensor, backward, finite_diff_check
from oracles import probe


def t(values, grad=True):
    return Tensor(values, requires_grad=grad)


class TestPointwise:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tk.add(t([1.0, 2.0]), t([1.0]))
        with pytest.raises(ShapeError):
            tk.add(t([1.0, 2.0]), t([1.0, 2.0]), t([1.0]))

    def test_add_of_many_terms_is_one_record_summed_left_to_right(self):
        a, b, c = t([1.0]), t([1e16]), t([-1e16])
        with Tape() as tape:
            total = tk.add(a, b, c, a)
            backward(probe(total, np.ones(1)))
        assert total.item() == 1.0  # ((1 + 1e16) - 1e16) + 1; any other order gives 2
        assert len(tape) == 3
        assert b.grad.tolist() == c.grad.tolist() == [1.0]
        assert a.grad.tolist() == [2.0]


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t([1.0, 2.0, 3.0])
        with Tape():
            backward(probe(x, np.ones(3)))
        assert x.grad.tolist() == [1.0, 1.0, 1.0]

    def test_non_scalar_loss_rejected(self):
        x = t([1.0, 2.0])
        with Tape():
            y = tk.add(x, x)
            with pytest.raises(ContractError):
                backward(y)

    def test_tape_is_single_use(self):
        x = t([1.0, 2.0])
        with Tape():
            loss = probe(x, np.ones(2))
            backward(loss)
            with pytest.raises(ContractError, match="single use"):
                backward(loss)

    def test_loss_without_tape_rejected(self):
        x = t([1.0])
        loss = probe(x, np.ones(1))
        with pytest.raises(ContractError):
            backward(loss)

    def test_gradients_accumulate_across_reuse(self):
        x = t([3.0])
        with Tape():
            loss = probe(tk.add(tk.mul_scalar(x, 6.0), x), np.ones(1))  # 6x + x
            backward(loss)
        assert x.grad.tolist() == [7.0]

    def test_no_record_outside_tape(self):
        x = t([1.0, 2.0])
        tape = Tape()
        with tape:
            probe(x, np.ones(2))
        n = len(tape)
        probe(x, np.ones(2))  # outside: not recorded anywhere
        assert len(tape) == n

    def test_constants_not_recorded(self):
        c1, c2 = Tensor([1.0]), Tensor([2.0])
        tape = Tape()
        with tape:
            tk.add(c1, c2)
        assert len(tape) == 0


class TestTwoOutputRecord:
    """gru_runs records two GRU runs as one record, (outputs, closure),
    whose closure takes both outputs' gradients in one call."""

    def runs(self):
        """Two pooled runs of hidden size 3: (x, lengths, weights) each."""
        rng = np.random.default_rng(17)
        runs = []
        for bsz, dim, lengths in ((2, 2, [4, 2]), (3, 5, [1, 4, 3])):
            weights = [t(rng.normal(size=s)) for s in ((dim, 9), (3, 6), (3, 3), (9,))]
            runs.append((t(rng.normal(size=(bsz, 4, dim))), lengths, weights))
        return runs

    def test_gradients_reach_both_runs_parents(self):
        runs = self.runs()
        with Tape() as tape:
            outs = tk.gru_runs([(x, lengths, w, None) for x, lengths, w in runs], pool=True)
            assert len(tape) == 1
            backward(tk.add(*(probe(out, np.ones(out.shape)) for out in outs)))
        for x, _, weights in runs:
            for p in (x, *weights):
                assert p.grad is not None and np.any(p.grad != 0.0)
        assert outs[0].tape is outs[1].tape is tk._SPENT_TAPE

    @pytest.mark.parametrize("fed", [0, 1])
    def test_a_run_without_gradient_leaves_its_parents_alone(self, fed):
        runs = self.runs()
        before = [np.full(p.shape, 7.0) for _, _, w in runs for p in w]
        for p, g in zip((p for _, _, w in runs for p in w), before):
            p.grad = g
        with Tape():
            outs = tk.gru_runs([(x, lengths, w, None) for x, lengths, w in runs], pool=True)
            backward(probe(outs[fed], np.ones(outs[fed].shape)))
        x, _, weights = runs[fed]
        assert np.any(weights[0].grad != 7.0) and x.grad is not None
        x, _, weights = runs[1 - fed]
        assert x.grad is None
        for p in weights:
            assert np.array_equal(p.grad, np.full(p.shape, 7.0))
        assert outs[1 - fed].grad is None and outs[1 - fed].tape is tk._SPENT_TAPE


@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4)])
def test_probe_gradient_is_its_weights(shape):
    rng = np.random.default_rng(len(shape))
    x, w = t(rng.normal(size=shape)), rng.normal(size=shape)
    with Tape():
        backward(probe(x, w))
    assert np.array_equal(x.grad, w)


class TestStructuralOps:
    def test_reshape_size_checked(self):
        with pytest.raises(ShapeError):
            tk.reshape(t([1.0, 2.0]), (3,))


class TestWorkspace:
    def test_the_block_grows_to_twice_its_capacity_and_never_shrinks(self):
        workspace, n = tk.Workspace(), 1000
        blocks, capacities = [], []  # the blocks kept, so that `is` tells them apart
        for scale in (1.0, 1.1, 0.9, 1.2):
            workspace.take((int(scale * n),))
            if workspace.block is not None and all(workspace.block is not b for b in blocks):
                blocks.append(workspace.block)
            workspace.reset()
            capacities.append(workspace.capacity)
        assert len(blocks) <= 2
        assert capacities == sorted(capacities) and capacities[-1] >= 1.2 * n

    def test_takes_are_views_of_the_block_in_the_dtype_asked(self):
        workspace = tk.Workspace()
        workspace.take((8, 8))
        workspace.reset()  # sizes the block
        a = workspace.take((2, 4))
        b = workspace.take((3,), np.intp)
        c = workspace.take((3,), bool)
        assert (a.shape, b.dtype, c.dtype) == ((2, 4), np.intp, np.bool_)
        for v in (a, b, c):
            assert np.shares_memory(v, workspace.block) and v.flags.c_contiguous
        assert not np.shares_memory(a, b) and not np.shares_memory(b, c)
        assert workspace.take((workspace.capacity,)).base is None  # past the block


class TestFiniteDiff:
    def test_sum_of_squares_closed_form(self):
        theta = t([1.0, 2.0])

        def f(ps):
            return tk.weighted_sq_err(ps[0], np.zeros(2))

        with Tape():
            backward(f([theta]))
        assert np.allclose(theta.grad, [2.0, 4.0], atol=1e-12)
        theta.grad = None
        report = finite_diff_check(f, [theta])
        assert report.max_rel_err < 1e-6

    def test_constant_function(self):
        theta = t([1.0, 2.0])

        def f(ps):
            return probe(Tensor([5.0]), np.ones(1))

        report = finite_diff_check(f, [theta])
        assert report.max_rel_err == 0.0

    def test_cosine_similarity_gradient(self):
        rng = np.random.default_rng(4)
        u = t(rng.normal(size=(1, 4)))
        w = t(rng.normal(size=(1, 4)))

        def f(ps):
            return probe(tk.cosine(ps[0], ps[1]), np.ones(1))

        report = finite_diff_check(f, [u, w])
        assert report.max_rel_err < 1e-4


def _primitive_cases(rng):
    """One scalar objective per primitive, with fresh random leaves. Each
    constant is drawn once, as a default argument, so every evaluation of
    an objective sees the same one."""
    v = lambda n=4: t(rng.normal(size=n))
    m = lambda r=3, c=4: t(rng.normal(size=(r, c)))
    c = lambda *shape: rng.normal(size=shape)
    w = c(4)

    return [
        ("add", lambda ps: probe(tk.add(ps[0], ps[1]), w), [v(), v()]),
        ("mul_scalar", lambda ps: probe(tk.mul_scalar(ps[0], -1.3), w), [v()]),
        ("reshape", lambda ps, k=c(12): probe(tk.reshape(ps[0], (12,)), k), [m()]),
        ("rank_hinge", lambda ps: tk.rank_hinge(ps[0], 0.6), [m(4, 4)]),
        ("cluster_hinge", lambda ps: tk.cluster_hinge(ps[0], 1.2), [m(4, 4)]),
        ("weighted_sq_err", lambda ps, y=c(3, 4): tk.weighted_sq_err(ps[0], y), [m()]),
        (
            "weighted_sq_err_weights",
            lambda ps, y=c(3, 4), k=rng.uniform(size=(3, 4)): tk.weighted_sq_err(ps[0], y, k),
            [m()],
        ),
        ("affine", lambda ps, k=c(3, 2): probe(tk.affine(ps[0], ps[1], ps[2]), k), [m(3, 4), m(2, 4), v(2)]),
        ("take", lambda ps, k=c(2, 2, 4): probe(tk.take(ps[0], np.array([[1, 0], [2, 1]])), k), [m()]),
        ("cosine", lambda ps, k=c(3, 2): probe(tk.cosine(ps[0], ps[1]), k), [m(3, 4), m(2, 4)]),
        ("segment_mean", lambda ps, k=c(2, 2): probe(tk.segment_mean(ps[0], [1, 2], [3, 1]), k), [m()]),
        (
            "gru_sequence_pool",
            lambda ps, k=c(3, 2): probe(tk.gru_sequence(ps[0], [2, 3, 1], ps[1:], pool=True), k),
            [t(rng.normal(size=(3, 3, 2))), m(2, 6), m(2, 4), m(2, 2), v(6)],
        ),
        ("add_repeated_term", lambda ps: probe(tk.add(ps[0], ps[1], ps[0]), w), [v(), v()]),
        (
            "gru_sequence_h0",
            lambda ps, k=c(3, 3, 2): probe(tk.gru_sequence(ps[0], [2, 3, 1], ps[1:5], ps[5]), k),
            [t(rng.normal(size=(3, 3, 2))), m(2, 6), m(2, 4), m(2, 2), v(6), m(3, 2)],
        ),
    ]


def test_every_primitive_matches_finite_differences():
    """>= 100 random instances across the primitive set; random inputs sit
    on no kink, so every coordinate is checked."""
    trials = 0
    for seed in range(8):
        rng = np.random.default_rng(1000 + seed)
        for name, f, params in _primitive_cases(rng):
            report = finite_diff_check(f, params)
            assert report.max_rel_err < 1e-4, (name, seed, report.max_rel_err)
            assert report.n_skipped_nondifferentiable == 0, (name, seed)
            trials += 1
    assert trials >= 100


def test_forward_deterministic():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(50,))
    a = probe(Tensor(vals), vals).item()
    b = probe(Tensor(vals), vals).item()
    assert a == b


class TestBatchPrimitives:
    def test_take_gathers_rows_and_sums_repeated_gradients(self):
        a = t(np.arange(6.0).reshape(3, 2))
        with Tape():
            rows = tk.take(a, np.array([[2, 0], [2, 2]]))
            assert rows.values.tolist() == [[[4.0, 5.0], [0.0, 1.0]], [[4.0, 5.0], [4.0, 5.0]]]
            backward(tk.add(probe(rows, np.ones(8)), probe(tk.take(a, 1), np.ones(2))))
        assert a.grad.tolist() == [[1.0, 1.0], [1.0, 1.0], [3.0, 3.0]]

    def test_take_out_of_range(self):
        with pytest.raises(ShapeError):
            tk.take(t(np.zeros((2, 2))), 2)

    def test_pooled_gru_ties_pick_first_step(self):
        # z = 1 exactly and no recurrent weights: each state is tanh(x_t),
        # so equal inputs give tied states
        x = t([[[1.0, 5.0], [3.0, 5.0], [3.0, 2.0]]])
        w = np.zeros((2, 6))
        w[:, 4:] = np.eye(2)
        b = np.zeros(6)
        b[:2] = 40.0  # exp(-40) vanishes beside 1
        weights = [t(w), t(np.zeros((2, 4))), t(np.zeros((2, 2))), t(b)]
        with Tape():
            out = tk.gru_sequence(x, [3], weights, pool=True)
            backward(probe(out, np.ones(2)))
        peak = np.tanh([3.0, 5.0])
        slope = 1.0 - peak * peak
        assert out.values.tolist() == [peak.tolist()]
        assert x.grad.tolist() == [[[0.0, slope[1]], [slope[0], 0.0], [0.0, 0.0]]]

    def test_segment_mean_blocks(self):
        a = t(np.arange(12.0).reshape(3, 4))
        out = tk.segment_mean(a, [2, 1], [1, 3])
        expected = [[(0 + 4) / 2, (1 + 2 + 3 + 5 + 6 + 7) / 6], [8.0, (9 + 10 + 11) / 3]]
        assert np.allclose(out.values, expected, atol=1e-12)
        with pytest.raises(ShapeError):
            tk.segment_mean(a, [2, 2], [4])

    def test_segment_mean_block_does_not_depend_on_position(self):
        rng = np.random.default_rng(3)
        big = rng.normal(size=(9, 11))
        means = tk.segment_mean(t(big), [4, 5], [3, 8]).values
        alone = tk.segment_mean(t(big[4:, 3:].copy()), [5], [8]).values
        assert means[1, 1] == alone[0, 0]

    def test_cosine_matches_pairwise_formula(self):
        rng = np.random.default_rng(5)
        u, w = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        out = tk.cosine(t(u), t(w)).values
        for i in range(3):
            for j in range(2):
                want = u[i] @ w[j] / (np.linalg.norm(u[i]) * np.linalg.norm(w[j]))
                assert out[i, j] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 3, 5, 16, 17, 33])
    def test_cosine_entry_depends_only_on_its_two_rows(self, d):
        def offset_copy(a, byte_offset):
            # a float64 copy starting byte_offset bytes into a fresh buffer
            raw = np.empty(a.nbytes + byte_offset, dtype=np.uint8)
            out = raw[byte_offset : byte_offset + a.nbytes].view(np.float64).reshape(a.shape)
            out[...] = a
            return out

        rng = np.random.default_rng(d)
        u, w = rng.normal(size=(7, d)) * 37.0, rng.normal(size=(5, d))
        for u_offset, w_offset in [(0, 0), (8, 16), (4, 1)]:
            full = tk.cosine(t(offset_copy(u, u_offset)), t(offset_copy(w, w_offset))).values
            for i in range(7):
                for j in range(5):
                    alone = tk.cosine(t(u[i : i + 1].copy()), t(w[j : j + 1].copy())).values
                    assert full[i, j] == alone[0, 0], (u_offset, w_offset, i, j)

    def test_new_primitives_match_finite_differences(self):
        # each weight is drawn once, as a default argument: one redrawn at
        # every evaluation makes the one-sided quotients disagree, and the
        # check then skips every coordinate as a kink
        rng = np.random.default_rng(7)
        weight = lambda *shape: rng.normal(size=shape)
        lengths = [2, 3, 1]
        cases = [
            ("take", lambda ps, k=weight(2, 2, 4): probe(tk.take(ps[0], np.array([[1, 0], [1, 1]])), k), [t(rng.normal(size=(3, 4)))]),
            ("cosine", lambda ps, k=weight(3, 2): probe(tk.cosine(ps[0], ps[1]), k), [t(rng.normal(size=(3, 4))), t(rng.normal(size=(2, 4)))]),
            ("cosine_self", lambda ps, k=weight(3, 3): probe(tk.cosine(ps[0], ps[0]), k), [t(rng.normal(size=(3, 4)))]),
            ("segment_mean", lambda ps, k=weight(2, 2): probe(tk.segment_mean(ps[0], [1, 2], [3, 1]), k), [t(rng.normal(size=(3, 4)))]),
            (
                "gru_sequence_pool",
                lambda ps, k=weight(3, 2): probe(tk.gru_sequence(ps[0], lengths, ps[1:], pool=True), k),
                [t(rng.normal(size=(3, 3, 2)))] + [t(rng.normal(size=s)) for s in ((2, 6), (2, 4), (2, 2), (6,))],
            ),
        ]
        for name, f, params in cases:
            report = finite_diff_check(f, params)
            assert report.max_rel_err < 1e-4, (name, report.max_rel_err)
            assert report.n_checked > 0 and report.n_skipped_nondifferentiable == 0, (name, report)


class TestLossHeads:
    # dyadic entries, so that each hinge argument below is exactly 0
    KINKS = [
        ("rank_hinge", [[0.5, 0.25], [0.25, 0.5]], 0.25),
        ("cluster_hinge", [[1.0, 0.75], [0.75, 1.0]], 0.25),
    ]

    @pytest.mark.parametrize("name, sim, margin", KINKS)
    def test_hinge_at_zero_passes_no_gradient(self, name, sim, margin):
        s = t(sim)
        with Tape() as tape:
            loss = getattr(tk, name)(s, margin)
            backward(loss)
        assert len(tape) == 1
        assert loss.item() == 0.0
        assert s.grad.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_rank_hinge_counts_both_directions(self):
        # only (i, j) = (0, 1) can be active: 0.5 + sim[0, 1] - 1.0 against
        # the aligned pair of column 1 and again against that of row 0
        out = tk.rank_hinge(t([[1.0, 0.5], [0.0, 1.0]]), 0.5)
        assert out.item() == 0.0
        out = tk.rank_hinge(t([[1.0, 0.75], [0.0, 1.0]]), 0.5)
        assert out.item() == 0.5

    @pytest.mark.parametrize("name", ["rank_hinge", "cluster_hinge"])
    def test_hinge_needs_a_square_matrix(self, name):
        with pytest.raises(ShapeError, match=rf"{name} needs a square \[K, K\] matrix, got shape \[2, 3\]"):
            getattr(tk, name)(t(np.zeros((2, 3))), 0.2)

    def test_affine_names_mismatched_shapes(self):
        with pytest.raises(ShapeError, match=r"got \[2, 3\], \[4, 5\] and \[4\]"):
            tk.affine(t(np.zeros((2, 3))), t(np.zeros((4, 5))), t(np.zeros(4)))
        with pytest.raises(ShapeError, match=r"got \[2, 3\], \[4, 3\] and \[3\]"):
            tk.affine(t(np.zeros((2, 3))), t(np.zeros((4, 3))), t(np.zeros(3)))

    def test_affine_adds_the_bias_to_every_row(self):
        out = tk.affine(t([[1.0, 2.0], [3.0, 4.0]]), t([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]), t([1.0, 0.0, -1.0]))
        assert out.values.tolist() == [[2.0, 3.0, 3.0], [4.0, 7.0, 7.0]]

    def test_weighted_sq_err_names_mismatched_shapes(self):
        with pytest.raises(ShapeError, match=r"target \[3\] and weights None must match pred \[2\]"):
            tk.weighted_sq_err(t([1.0, 2.0]), np.zeros(3))
        with pytest.raises(ShapeError, match=r"weights \[1\] must match pred \[2\]"):
            tk.weighted_sq_err(t([1.0, 2.0]), np.zeros(2), np.ones(1))

    def test_weighted_sq_err_weights_each_entry(self):
        x = t([1.0, 2.0])
        with Tape():
            loss = tk.weighted_sq_err(x, [0.0, 4.0], [3.0, 0.5])
            backward(loss)
        assert loss.item() == 5.0  # 3 * 1 + 0.5 * 4
        assert x.grad.tolist() == [6.0, -2.0]
