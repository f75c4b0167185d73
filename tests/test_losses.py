import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hse import tensorkit as tk
from hse.data import ParagraphSample, SynthSpec, VideoSample, synth_generate
from hse.errors import ConfigError, ContractError, DegenerateInputError
from hse.losses import (
    LossConfig,
    loss_cluster_high,
    loss_cluster_low,
    loss_match_high,
    loss_match_low,
    loss_match_low_weak,
    loss_reconstruct,
    total_loss,
)
from hse.model import DecodedBatch, ModelDims, pad_sequences
from hse.tensorkit import Tape, Tensor, backward
from hse.training import init_params


def t(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def avg_match(clips, sentences):
    """Mean cosine similarity over every clip/sentence combination of one
    pair, as loss_match_low_weak forms each entry of its matrix."""
    return tk.segment_mean(tk.cosine(clips, sentences), [clips.shape[0]], [sentences.shape[0]])


def rand_batch(rng, k, d):
    return t(rng.normal(size=(k, d))), t(rng.normal(size=(k, d)))


def rand_nested(rng, k, d, aligned=True):
    """Per-pair [n, d] clip and [m, d] sentence embedding groups."""
    clips, sents = [], []
    for _ in range(k):
        n = int(rng.integers(1, 4))
        m = n if aligned else int(rng.integers(1, 4))
        clips.append(rng.normal(size=(n, d)))
        sents.append(rng.normal(size=(m, d)))
    return clips, sents


def stacked(groups):
    """The embedding matrix of per-pair row groups, and the per-pair counts."""
    return t(np.concatenate(groups)), [len(g) for g in groups]


def decoded_batch(low_rows, unit_rows):
    """A DecodedBatch holding the given generated embeddings and, zero-padded,
    the given generated feature rows of each unit."""
    padded, lengths = pad_sequences(unit_rows)
    return DecodedBatch(
        low=t(np.asarray(low_rows, dtype=np.float64).reshape(len(lengths), -1)),
        units=t(padded.reshape(-1, padded.shape[2])),
        lengths=lengths,
    )


def padded(unit_rows):
    """The [N, T, D] zero-padded feature rows of each unit, as EncodedBatch.units."""
    return pad_sequences(unit_rows)[0]


def cos(u, w):
    """tk.cosine of two vectors, as [1, D] rows."""
    return tk.cosine(t([u]), t([w])).item()


class TestMatch:
    def test_identical_vectors(self):
        assert cos([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cos([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_45_degrees(self):
        assert cos([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            cos([0.0, 0.0], [1.0, 0.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            u = rng.normal(size=5)
            w = rng.normal(size=5)
            a, b = rng.uniform(1e-3, 1e3, size=2)
            base = cos(u, w)
            scaled = cos(a * u, b * w)
            assert abs(base - scaled) < 1e-12


class TestRankingFromSimilarity:
    def test_k1_is_zero(self):
        assert tk.rank_hinge(t([[0.9]]), 0.2).item() == 0.0

    def test_inactive_hinges(self):
        sim = t([[0.9, 0.2], [0.1, 0.8]])
        assert tk.rank_hinge(sim, 0.2).item() == 0.0

    def test_active_hinges_enumerated(self):
        # terms 0.1 + 0.3 + 0.3 + 0.1
        sim = t([[0.5, 0.6], [0.4, 0.5]])
        assert tk.rank_hinge(sim, 0.2).item() == pytest.approx(0.8, abs=1e-12)

    def test_corrected_mode_monotone_in_aligned_similarity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            vals = rng.uniform(-1.0, 1.0, size=(3, 3))
            base = tk.rank_hinge(t(vals), 0.2).item()
            bumped = vals.copy()
            k = rng.integers(0, 3)
            bumped[k, k] += rng.uniform(0.0, 0.5)
            assert tk.rank_hinge(t(bumped), 0.2).item() <= base + 1e-12


class TestMatchHigh:
    def test_single_pair_zero(self):
        assert loss_match_high(t([[1.0, 2.0]]), t([[2.0, 1.0]]), 0.2).item() == 0.0

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            d = int(rng.integers(2, 9))
            videos, paragraphs = rand_batch(rng, k, d)
            got = loss_match_high(videos, paragraphs, 0.2).item()
            want = oracles.ref_loss_match_high(videos.values, paragraphs.values, 0.2)
            assert got == pytest.approx(want, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            loss_match_high(t([[1.0]]), t(np.zeros((0, 1))), 0.2)


class TestMatchLow:
    def test_single_clip_sentence_zero(self):
        assert loss_match_low(t([[1.0, 0.0]]), [1], t([[0.0, 1.0]]), [1], 0.2).item() == 0.0

    def test_perfect_alignment_zero(self):
        clips = t([[1.0, 0.0], [0.0, 1.0]])
        sents = t([[1.0, 0.0], [0.0, 1.0]])
        assert loss_match_low(clips, [1, 1], sents, [1, 1], 0.2).item() == 0.0

    def test_misaligned_counts_direct_to_weak(self):
        clips = t([[1.0, 0.0], [0.0, 1.0]])
        sents = t([[1.0, 0.0]])
        with pytest.raises(ContractError, match="loss_match_low_weak"):
            loss_match_low(clips, [2], sents, [1], 0.2)

    def test_counts_must_split_the_rows(self):
        rows = t([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ContractError, match="counts"):
            loss_match_low(rows, [1], rows, [1], 0.2)
        with pytest.raises(ContractError, match="counts"):
            loss_match_low_weak(rows, [2, 0], rows, [1, 1], 0.2)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            clips, sents = rand_nested(rng, int(rng.integers(1, 4)), 4)
            got = loss_match_low(*stacked(clips), *stacked(sents), 0.2).item()
            want = oracles.ref_loss_match_low(clips, sents, 0.2)
            assert got == pytest.approx(want, abs=1e-10)


class TestClusterLosses:
    def test_high_example(self):
        theta = math.acos(0.9)
        videos = t([[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
        phi = math.acos(0.5)
        paragraphs = t([[1.0, 0.0], [math.cos(phi), math.sin(phi)]])
        got = loss_cluster_high(videos, paragraphs, 0.2).item()
        assert got == pytest.approx(0.2, abs=1e-9)

    def test_high_below_threshold_zero(self):
        phi = math.acos(0.7)
        videos = t([[1.0, 0.0], [math.cos(phi), math.sin(phi)]])
        assert loss_cluster_high(videos, videos, 0.2).item() == pytest.approx(0.0, abs=1e-9)

    def test_high_k1_zero(self):
        assert loss_cluster_high(t([[1.0, 1.0]]), t([[1.0, 2.0]]), 0.2).item() == 0.0

    def test_low_identical_clips(self):
        clips = t([[1.0, 0.0], [2.0, 0.0]])
        sents = t([[0.0, 1.0]])
        got = loss_cluster_low(clips, sents, 0.2).item()
        assert got == pytest.approx(0.4, abs=1e-12)

    def test_low_separated_zero(self):
        clips = t([[1.0, 0.0], [0.0, 1.0]])
        sents = t([[1.0, 0.0], [-1.0, 1.0]])
        assert loss_cluster_low(clips, sents, 0.2).item() == pytest.approx(0.0, abs=1e-12)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            k = int(rng.integers(1, 5))
            videos, paragraphs = rand_batch(rng, k, 5)
            got = loss_cluster_high(videos, paragraphs, 0.2).item()
            want = oracles.ref_loss_cluster_high(videos.values, paragraphs.values, 0.2)
            assert got == pytest.approx(want, abs=1e-10)
            clips, sents = rand_nested(rng, k, 4, aligned=False)
            got = loss_cluster_low(stacked(clips)[0], stacked(sents)[0], 0.3).item()
            want = oracles.ref_loss_cluster_low(clips, sents, 0.3)
            assert got == pytest.approx(want, abs=1e-10)


class TestAvgMatch:
    def test_single_pair_equals_match(self):
        c, s = t([[1.0, 2.0]]), t([[0.5, -1.0]])
        assert avg_match(c, s).item() == tk.cosine(c, s).item()

    def test_hand_example(self):
        clips = t([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        sents = t([[1.0, 0.0, 0.0], [0.5, 0.5, math.sqrt(0.5)]])
        assert avg_match(clips, sents).item() == pytest.approx(0.5, abs=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            clips = rng.normal(size=(int(rng.integers(1, 5)), 4))
            sents = rng.normal(size=(int(rng.integers(1, 5)), 4))
            got = avg_match(t(clips), t(sents)).item()
            want = oracles.ref_avg_match(clips, sents)
            assert got == pytest.approx(want, abs=1e-12)


class TestMatchLowWeak:
    def test_k1_zero(self):
        assert loss_match_low_weak(t([[1.0, 2.0]]), [1], t([[2.0, 1.0]]), [1], 0.2).item() == 0.0

    def test_structural_identity_with_matrix_ranking(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            clips, sents = rand_nested(rng, k, 4, aligned=False)
            got = loss_match_low_weak(*stacked(clips), *stacked(sents), 0.2).item()
            rows = [
                [avg_match(t(clips[a]), t(sents[b])).item() for b in range(k)] for a in range(k)
            ]
            want = tk.rank_hinge(t(rows), 0.2).item()
            assert got == want  # exact: same kernel over the same averaged matrix

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            k = int(rng.integers(1, 5))
            clips, sents = rand_nested(rng, k, 3, aligned=False)
            got = loss_match_low_weak(*stacked(clips), *stacked(sents), 0.2).item()
            want = oracles.ref_loss_match_low_weak(clips, sents, 0.2)
            assert got == pytest.approx(want, abs=1e-10)


class TestReconstruct:
    def test_perfect_reconstruction_zero(self):
        rng = np.random.default_rng(8)
        target_low = rng.normal(size=(2, 3))
        raw = [rng.normal(size=(2, 4)), rng.normal(size=(3, 4))]
        got = loss_reconstruct(decoded_batch(target_low, raw), target_low, padded(raw))
        assert got.item() == 0.0

    def test_hand_example(self):
        target_low = np.zeros((1, 3))
        decoded_low = [[0.3, 0.4, 0.0]]  # squared norm 0.25
        raw = [np.zeros((2, 3))]
        decoded_units = [
            [[0.1, 0.1, 0.0], [0.2, 0.1, 0.1]]  # squared norms 0.02 and 0.06
        ]
        decoded = decoded_batch(decoded_low, decoded_units)
        got = loss_reconstruct(decoded, target_low, padded(raw)).item()
        text_side = 0.0
        assert got + text_side == pytest.approx(0.29, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            target_low = rng.normal(size=(n, 3))
            decoded_low = rng.normal(size=(n, 3))
            raw = [rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in range(n)]
            decoded_units = [rng.normal(size=(r.shape[0], 2)) for r in raw]
            decoded = decoded_batch(decoded_low, decoded_units)
            assert loss_reconstruct(decoded, target_low, padded(raw)).item() >= 0.0

    def test_count_mismatch(self):
        with pytest.raises(ContractError):
            loss_reconstruct(
                decoded_batch([[1.0]], [[[1.0]]]), np.ones((1, 1)), padded([np.ones((2, 1))])
            )

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            target_low = rng.normal(size=(n, 3))
            decoded_low = rng.normal(size=(n, 3))
            raw = [rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in range(n)]
            decoded_units = [rng.normal(size=(r.shape[0], 2)) for r in raw]
            decoded = decoded_batch(decoded_low, decoded_units)
            got = loss_reconstruct(decoded, target_low, padded(raw)).item()
            want = oracles.ref_loss_reconstruct(target_low, decoded_low, decoded_units, raw)
            assert got == pytest.approx(want, abs=1e-10)


class TestTotalLoss:
    def _batch(self, rng, k=3):
        batch = []
        for i in range(k):
            n = int(rng.integers(1, 4))
            clips = [rng.normal(size=(int(rng.integers(1, 3)), 4)) for _ in range(n)]
            sents = [rng.normal(size=(int(rng.integers(1, 3)), 3)) for _ in range(n)]
            batch.append((VideoSample(f"v{i}", clips), ParagraphSample(f"v{i}", sents)))
        return batch

    def test_composition_identity_exact(self):
        rng = np.random.default_rng(11)
        params = init_params(ModelDims(d_v=4, d_t=3, hidden_low=5, hidden_high=5), 1)
        for mode in ("strong", "weak", "none"):
            config = LossConfig(tau=5e-4, correspondence=mode)
            bd = total_loss(self._batch(rng), params, config)
            recomposed = (
                bd.match_high
                + bd.match_low
                + bd.cluster_high
                + bd.cluster_low
                + config.tau * bd.reconstruct
            )
            assert bd.total == recomposed
            assert all(v >= 0.0 for v in bd.components().values())

    def test_arithmetic_example(self):
        # (match_high + cluster_high) = 0.5, (match_low + cluster_low) = 0.3,
        # reconstruct = 10, tau = 5e-4 -> 0.805
        total = 0.3 + 0.2 + 0.2 + 0.1 + 5e-4 * 10.0
        assert total == pytest.approx(0.805, abs=1e-12)

    def test_tau_zero_skips_reconstruction(self):
        rng = np.random.default_rng(12)
        params = init_params(ModelDims(d_v=4, d_t=3, hidden_low=4, hidden_high=4), 2)
        batch = self._batch(rng)
        bd = total_loss(batch, params, LossConfig(tau=0.0))
        assert bd.reconstruct == 0.0
        bd_tau = total_loss(batch, params, LossConfig(tau=5e-4))
        assert bd_tau.reconstruct > 0.0
        assert bd.match_high == bd_tau.match_high

    def test_weak_mode_uses_beta_prime(self):
        rng = np.random.default_rng(13)
        params = init_params(ModelDims(d_v=4, d_t=3, hidden_low=4, hidden_high=4), 3)
        batch = self._batch(rng)
        a = total_loss(batch, params, LossConfig(tau=0.0, correspondence="weak", beta_prime=0.2))
        b = total_loss(batch, params, LossConfig(tau=0.0, correspondence="weak", beta_prime=0.9))
        assert a.match_low != b.match_low
        assert a.cluster_low == b.cluster_low

    def test_empty_batch_rejected(self):
        params = init_params(ModelDims(d_v=2, d_t=2, hidden_low=2, hidden_high=2), 0)
        with pytest.raises(ContractError):
            total_loss([], params, LossConfig())

    @staticmethod
    def _step_records(spec, config, hidden=32):
        corpus, _ = synth_generate(spec)
        params = init_params(ModelDims(d_v=spec.d_v, d_t=spec.d_t, hidden_low=hidden, hidden_high=hidden), 7)
        with Tape() as tape:
            bd = total_loss(corpus.pairs, params, config)
            backward(bd.node)
        return bd, tape

    def test_full_objective_step_records_few_tape_records(self):
        # the acceptance overfit shape: 8 pairs of 3 clips x 4 frames and
        # 3 sentences x 4 words, d=16, hidden 32, reconstruction on
        spec = SynthSpec(
            num_pairs=8, num_events=4, clips_per_pair=(3, 3), frames_per_clip=(4, 4),
            words_per_sentence=(4, 4), d_v=16, d_t=16, seed=7,
        )
        bd, tape = self._step_records(spec, LossConfig(tau=5e-4))
        assert bd.reconstruct > 0.0
        # one record per loss head and projection, not a chain per head
        assert len(tape) <= 44
        # embeddings reach the losses as the encoder's matrices, never re-stacked rows
        assert not any(back.__qualname__.startswith("stack.") for _, back in tape._records)

    def test_weak_step_records_few_tape_records(self):
        # ragged lengths, weak correspondence, no decoders
        spec = SynthSpec(
            num_pairs=16, num_events=8, clips_per_pair=(2, 5), frames_per_clip=(2, 8),
            words_per_sentence=(2, 8), d_v=16, d_t=16, seed=7,
        )
        bd, tape = self._step_records(spec, LossConfig(tau=0.0, correspondence="weak"))
        assert bd.match_low > 0.0
        assert len(tape) <= 24

    @pytest.mark.parametrize("tau, runs", [(5e-4, 4), (0.0, 2)])
    def test_each_level_pairs_its_video_and_paragraph_runs(self, tau, runs):
        """One GRU record per level for both modalities: the two encoder
        levels, and the two decoder levels when tau > 0."""
        spec = SynthSpec(
            num_pairs=4, num_events=4, clips_per_pair=(1, 3), frames_per_clip=(1, 4),
            words_per_sentence=(1, 4), d_v=3, d_t=2, seed=8,
        )
        _, tape = self._step_records(spec, LossConfig(tau=tau), hidden=4)
        kernel = [out for out, back in tape._records if back.__qualname__.startswith("gru_runs.")]
        assert len(kernel) == runs
        assert all(isinstance(out, tuple) and len(out) == 2 for out in kernel)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            LossConfig(alpha=0.0).validate()
        with pytest.raises(ConfigError):
            LossConfig(tau=-1.0).validate()


class TestScaleInvariancePropagates:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_losses_invariant_to_embedding_rescaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        videos, paragraphs = rand_batch(rng, 3, 4)
        base = loss_match_high(videos, paragraphs, 0.2).item()
        scaled = loss_match_high(t(scale * videos.values), paragraphs, 0.2).item()
        assert abs(base - scaled) < 1e-9
