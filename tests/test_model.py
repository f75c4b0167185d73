import numpy as np
import pytest

from hse import tensorkit as tk
from hse.data import ParagraphSample, VideoSample
from hse.errors import ContractError, ShapeError
from hse.model import (
    GruParams,
    ModelDims,
    build_params,
    decode_batch,
    encode_batch,
    encode_flat_batch,
    encode_sequences,
    gru_step,
)
from hse.tensorkit import Tape, Tensor, finite_diff_check
from hse.training import init_params


def random_gru(rng, input_dim, hidden_dim):
    p = GruParams.zeros(input_dim, hidden_dim)
    for _, tensor in p.named("g"):
        tensor.values = rng.normal(0.0, 0.4, size=tensor.values.shape)
    return p


def numpy_gru_step(p: GruParams, x, h):
    """Independent forward reference for the pinned cell convention."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = sig((p.w_z.values @ x + p.u_z.values @ h) + p.b_z.values)
    r = sig((p.w_r.values @ x + p.u_r.values @ h) + p.b_r.values)
    cand = np.tanh((p.w_h.values @ x + p.u_h.values @ (r * h)) + p.b_h.values)
    return (1.0 - z) * h + z * cand


class TestGruStep:
    def test_zero_weights_halve_the_state(self):
        p = GruParams.zeros(2, 2)
        h = Tensor([0.4, -0.2])
        out = gru_step(p, np.zeros(2), h)
        assert out.values.tolist() == [0.2, -0.1]

    def test_zero_state_is_fixed_point_of_zero_weights(self):
        p = GruParams.zeros(3, 3)
        out = gru_step(p, np.zeros(3), Tensor(np.zeros(3)))
        assert out.values.tolist() == [0.0, 0.0, 0.0]

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(3)
        p = random_gru(rng, 4, 3)
        x = rng.normal(size=4)
        h = rng.normal(size=3)
        out = gru_step(p, x, Tensor(h))
        assert np.allclose(out.values, numpy_gru_step(p, x, h), atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        p = random_gru(rng, 3, 3)
        x = rng.normal(size=3)
        h = tk.constant(rng.normal(size=3))
        weight = tk.constant(rng.normal(size=3))
        params = [t for _, t in p.named("g")]

        def f(ps):
            return tk.reduce_sum(tk.mul(gru_step(p, x, h), weight))

        assert finite_diff_check(f, params).max_rel_err < 1e-4

    def test_shape_errors(self):
        p = GruParams.zeros(2, 3)
        with pytest.raises(ShapeError):
            gru_step(p, np.zeros(5), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            gru_step(p, np.zeros(2), Tensor(np.zeros(2)))


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
        states = tk.gru_sequence(tk.constant(x), lengths, p.gates(), tk.constant(h0)).values
        for b, n in enumerate(lengths):
            h = Tensor(h0[b])
            for step in range(5):
                if step < n:
                    h = gru_step(p, x[b, step], h)
                    assert np.allclose(states[b, step], h.values, rtol=0.0, atol=1e-12)
                else:  # padding carries the last state unchanged
                    assert np.array_equal(states[b, step], states[b, n - 1])

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(22)
        p = random_gru(rng, 3, 4)
        x_values, lengths = ragged_batch(rng, 3, 4)
        x = Tensor(x_values, requires_grad=True)
        h0 = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        weight = tk.constant(rng.normal(size=(4, 4, 4)))

        def f(ps):
            return tk.reduce_sum(tk.mul(tk.gru_sequence(x, lengths, p.gates(), h0), weight))

        report = finite_diff_check(f, [*p.gates(), x, h0])
        assert report.max_rel_err < 1e-4
        assert len(report.per_param_max) == 11

    def test_one_tape_record_per_run(self):
        rng = np.random.default_rng(23)
        p = random_gru(rng, 2, 3)
        x, lengths = ragged_batch(rng, 2, 4)
        with Tape() as tape:
            tk.gru_sequence(tk.constant(x), lengths, p.gates())
        assert len(tape) == 1

    def test_shape_errors(self):
        p = GruParams.zeros(2, 3)
        with pytest.raises(ShapeError):
            tk.gru_sequence(tk.constant(np.zeros((2, 4, 5))), [4, 4], p.gates())
        with pytest.raises(ShapeError):
            tk.gru_sequence(tk.constant(np.zeros((2, 4, 2))), [4, 5], p.gates())
        with pytest.raises(ShapeError):
            tk.gru_sequence(tk.constant(np.zeros((2, 4, 2))), [4, 4], p.gates(), tk.constant(np.zeros((1, 3))))


def run_and_pool(p, x, lengths, h0, taped):
    """States and pooled rows of one kernel run, with or without a tape."""
    if taped:
        with Tape():
            states = tk.gru_sequence(tk.constant(x), lengths, p.gates(), tk.constant(h0))
            pooled = tk.masked_max(states, lengths)
    else:
        states = tk.gru_sequence(tk.constant(x), lengths, p.gates(), tk.constant(h0))
        pooled = tk.masked_max(states, lengths)
    return states.values, pooled.values


class TestPackedKernel:
    """Rows are sorted longest first inside gru_sequence; none of that may
    show in the results."""

    @pytest.mark.parametrize("taped", [False, True])
    def test_permuting_rows_permutes_states_and_pooled_rows(self, taped):
        rng = np.random.default_rng(31)
        p = random_gru(rng, 3, 4)
        x, lengths = ragged_batch(rng, 3, 6)
        assert lengths != sorted(lengths, reverse=True)
        h0 = rng.normal(size=(6, 4))
        states, pooled = run_and_pool(p, x, lengths, h0, taped)
        perm = rng.permutation(6)
        p_states, p_pooled = run_and_pool(p, x[perm], [lengths[i] for i in perm], h0[perm], taped)
        assert np.array_equal(p_states, states[perm])
        assert np.array_equal(p_pooled, pooled[perm])

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
        rng = np.random.default_rng(33)
        values = rng.normal(size=(4, 5, 3))
        values[0, 1] = values[0, 3] = 9.0  # ties inside a row
        values[2, 4] = 50.0  # a padded step larger than every valid one
        lengths = [5, 2, 4, 1]
        free = tk.masked_max(tk.constant(values), lengths)
        with Tape():
            taped = tk.masked_max(Tensor(values, requires_grad=True), lengths)
        assert np.array_equal(free.values, taped.values)
        assert free.values[0].tolist() == [9.0] * 3

    def test_gradients_match_gru_step_loop(self):
        rng = np.random.default_rng(34)
        p = random_gru(rng, 3, 4)
        x_values, lengths = ragged_batch(rng, 3, 5)
        h0_values = rng.normal(size=(5, 4))
        weight = rng.normal(size=(5, 5, 4))

        def grads(loss_fn):
            x = Tensor(x_values, requires_grad=True)
            h0 = Tensor(h0_values, requires_grad=True)
            tk.zero_grads(p.gates())
            with Tape():
                tk.backward(loss_fn(x, h0))
            return [g.grad.copy() for g in p.gates()] + [x.grad, h0.grad]

        def kernel_loss(x, h0):
            states = tk.gru_sequence(x, lengths, p.gates(), h0)
            return tk.reduce_sum(tk.mul(states, tk.constant(weight)))

        def loop_loss(x, h0):
            total = None
            for b, n in enumerate(lengths):
                h, row = tk.take(h0, b), tk.take(x, b)
                for step in range(5):
                    if step < n:  # padding carries the last state
                        h = gru_step(p, tk.take(row, step), h)
                    term = tk.reduce_sum(tk.mul(h, tk.constant(weight[b, step])))
                    total = term if total is None else tk.add(total, term)
            return total

        for got, want in zip(grads(kernel_loss), grads(loop_loss)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-10)

    def test_no_input_equals_zero_input(self):
        rng = np.random.default_rng(35)
        p = random_gru(rng, 1, 4)
        lengths = [2, 4, 1]
        h0_values = rng.normal(size=(3, 4))
        weight = tk.constant(rng.normal(size=(3, 4, 4)))
        results = []
        for x in (None, tk.constant(np.zeros((3, 4, 1)))):
            h0 = Tensor(h0_values, requires_grad=True)
            tk.zero_grads(p.gates())
            with Tape():
                states = tk.gru_sequence(x, lengths, p.gates(), h0)
                tk.backward(tk.reduce_sum(tk.mul(states, weight)))
            results.append([states.values, h0.grad] + [g.grad for g in p.gates()])
        for got, want in zip(*results):
            assert np.array_equal(got, want)
        assert np.array_equal(p.w_z.grad, np.zeros((4, 1)))  # still handed to the optimizer


class TestEncodeSequence:
    def test_single_element_equals_one_step(self):
        rng = np.random.default_rng(1)
        p = random_gru(rng, 3, 4)
        x = rng.normal(size=3)
        single = encode_sequences(p, [x[None, :]])
        step = gru_step(p, x, Tensor(np.zeros(4)))
        assert np.array_equal(single.values[0], step.values)

    def test_pooling_is_channelwise_max_of_steps(self):
        rng = np.random.default_rng(2)
        p = random_gru(rng, 2, 3)
        xs = [rng.normal(size=2) for _ in range(5)]
        h = np.zeros(3)
        outputs = []
        for x in xs:
            h = numpy_gru_step(p, x, h)
            outputs.append(h)
        expected = np.max(np.stack(outputs), axis=0)
        assert np.allclose(encode_sequences(p, [np.stack(xs)]).values[0], expected, atol=1e-12)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ContractError):
            encode_sequences(GruParams.zeros(2, 2), [])
        with pytest.raises(ShapeError):
            encode_sequences(GruParams.zeros(2, 2), [np.zeros((0, 2))])


class TestEncodeFlat:
    def test_single_frame_video(self):
        rng = np.random.default_rng(5)
        dims = ModelDims(d_v=3, d_t=3, hidden_low=4, hidden_high=4)
        params = init_params(dims, 0)
        frame = rng.normal(size=3)
        video = VideoSample("v", [frame.reshape(1, 3)])
        flat = encode_flat_batch(params.enc_v_low, [video])
        direct = gru_step(params.enc_v_low, frame, Tensor(np.zeros(4)))
        assert np.array_equal(flat.values[0], direct.values)

    def test_equals_manual_flattening(self):
        rng = np.random.default_rng(6)
        dims = ModelDims(d_v=3, d_t=3, hidden_low=4, hidden_high=4)
        params = init_params(dims, 1)
        clips = [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))]
        video = VideoSample("v", clips)
        flat = encode_flat_batch(params.enc_v_low, [video])
        manual = encode_sequences(params.enc_v_low, [np.stack([r for c in clips for r in c])])
        assert np.array_equal(flat.values, manual.values)

    def test_sensitive_to_clip_order(self):
        rng = np.random.default_rng(7)
        dims = ModelDims(d_v=3, d_t=3, hidden_low=4, hidden_high=4)
        params = init_params(dims, 2)
        clips = [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))]
        a, b = encode_flat_batch(
            params.enc_v_low, [VideoSample("v", clips), VideoSample("v", clips[::-1])]
        ).values
        assert not np.array_equal(a, b)


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
        emb = encode_batch(self.params, [video])
        direct = encode_sequences(self.params.enc_v_high, [emb.low.values])
        assert np.array_equal(emb.high.values, direct.values)

    def test_low_embeddings_are_local(self):
        video = self._video(n=3)
        before = encode_batch(self.params, [video]).low.values
        perturbed = VideoSample(
            "v", [video.clips[0], video.clips[1] + 1.0, video.clips[2]]
        )
        after = encode_batch(self.params, [perturbed]).low.values
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[2], after[2])
        assert not np.array_equal(before[1], after[1])

    def test_permuting_clips_permutes_low_and_changes_high(self):
        video = self._video(n=3)
        base = encode_batch(self.params, [video])
        perm = [2, 0, 1]
        permuted = encode_batch(
            self.params, [VideoSample("v", [video.clips[i] for i in perm])]
        )
        assert np.array_equal(permuted.low.values, base.low.values[perm])
        assert not np.array_equal(permuted.high.values, base.high.values)

    def test_paragraph_side_uses_text_encoders(self):
        paragraph = ParagraphSample("p", [self.rng.normal(size=(2, 3)) for _ in range(2)])
        emb = encode_batch(self.params, [paragraph])
        assert emb.high.values.shape == (1, 6)
        assert emb.low.values.shape == (2, 5)
        assert emb.counts == [2]

    def test_carry_low_state_changes_embeddings(self):
        video = self._video(n=3)
        reset = encode_batch(self.params, [video], carry_low_state=False).low.values
        carried = encode_batch(self.params, [video], carry_low_state=True).low.values
        assert np.array_equal(reset[0], carried[0])
        assert not np.array_equal(reset[1], carried[1])

    def test_encoder_gradients_vs_finite_differences(self):
        video = self._video(n=2)
        weight = tk.constant(self.rng.normal(size=(1, 6)))
        enc_params = [t for _, t in self.params.enc_v_low.named("a")] + [
            t for _, t in self.params.enc_v_high.named("b")
        ]

        def f(ps):
            return tk.reduce_sum(tk.mul(encode_batch(self.params, [video]).high, weight))

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

    @pytest.mark.parametrize("carry", [False, True])
    def test_sample_alone_equals_sample_in_ragged_batch(self, carry):
        videos = self._videos(6)
        batch = encode_batch(self.params, videos, carry_low_state=carry)
        assert batch.counts == [video.n for video in videos]
        start = 0
        for k, video in enumerate(videos):
            alone = encode_batch(self.params, [video], carry_low_state=carry)
            in_batch_high = batch.high.values[k : k + 1]
            assert np.allclose(alone.high.values, in_batch_high, rtol=0.0, atol=1e-12)
            # rows are multiplied one at a time, so the match is exact
            assert np.array_equal(alone.high.values, in_batch_high)
            assert np.array_equal(alone.low.values, batch.low.values[start : start + video.n])
            start += video.n

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
        high = tk.constant(self.rng.normal(size=(1, 5)))
        decoded = decode_batch(self.params, high, [[1]], "video")
        assert decoded.low.values.shape == (1, 4)
        assert decoded.lengths == [1]
        assert decoded.units.values.shape == (1, 3)

    def test_counts_match_requested_lengths(self):
        high = tk.constant(self.rng.normal(size=(1, 5)))
        n_i = [2, 1, 3]
        decoded = decode_batch(self.params, high, [n_i], "text")
        assert decoded.low.values.shape == (3, 4)
        assert decoded.lengths == n_i
        assert decoded.steps == 3
        assert decoded.units.values.shape == (3 * 3, 4)  # steps rows per unit, padded

    def test_zero_counts_rejected(self):
        high = tk.constant(np.zeros((1, 5)))
        with pytest.raises(ContractError):
            decode_batch(self.params, high, [[]], "video")
        with pytest.raises(ContractError):
            decode_batch(self.params, high, [[1, 0]], "video")

    def test_unknown_modality(self):
        with pytest.raises(ContractError):
            decode_batch(self.params, tk.constant(np.zeros((1, 5))), [[1]], "audio")

    def test_decoder_gradients_vs_finite_differences(self):
        high = tk.constant(self.rng.normal(size=(1, 5)))
        dec_params = [t for _, t in self.params.dec_v_high.named("h")] + [
            t for _, t in self.params.dec_v_low.named("l")
        ]
        generated = [0, 1, 2]  # two rows per unit; row 3 is unit 1's padding

        def f(ps):
            decoded = decode_batch(self.params, high, [[2, 1]], "video")
            return tk.add(
                tk.reduce_sum(decoded.low), tk.reduce_sum(tk.take(decoded.units, generated))
            )

        assert finite_diff_check(f, dec_params).max_rel_err < 1e-4


class TestParamStructure:
    def test_named_parameter_order_is_stable(self):
        dims = ModelDims(d_v=2, d_t=3, hidden_low=4, hidden_high=5)
        names = [n for n, _ in build_params(dims).named_parameters()]
        assert names[:3] == ["enc_v_low.w_z", "enc_v_low.u_z", "enc_v_low.b_z"]
        assert names[-2:] == ["dec_p_low.out_w", "dec_p_low.out_b"]
        assert len(names) == 4 * 9 + 4 * 11

    def test_validate_catches_dim_mismatch(self):
        dims = ModelDims(d_v=2, d_t=3, hidden_low=4, hidden_high=5)
        params = build_params(dims)
        params.enc_v_low.w_z.values = np.zeros((4, 3))
        with pytest.raises(ShapeError):
            params.validate()

    def test_embeddings_are_finite_checked(self):
        dims = ModelDims(d_v=2, d_t=2, hidden_low=2, hidden_high=2)
        params = init_params(dims, 0)
        video = VideoSample("v", [np.full((1, 2), np.nan)])
        with pytest.raises(Exception, match="non-finite"):
            encode_batch(params, [video])
