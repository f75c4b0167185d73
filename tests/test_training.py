import numpy as np
import pytest

import oracles
from hse import training
from hse.data import SynthSpec, synth_generate
from hse.errors import ConfigError, ContractError, TrainingDiverged
from hse.losses import LossBreakdown, LossConfig
from hse.model import ModelDims
from hse.training import (
    OptimizerState,
    TrainConfig,
    init_params,
    lr_at_epoch,
    optimizer_step,
    train,
)


class TestInitParams:
    def test_deterministic(self):
        dims = ModelDims(d_v=4, d_t=3, hidden_low=5, hidden_high=5)
        a = init_params(dims, 42)
        b = init_params(dims, 42)
        for (_, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert ta.values.tobytes() == tb.values.tobytes()

    def test_different_seeds_differ(self):
        dims = ModelDims(d_v=4, d_t=3, hidden_low=5, hidden_high=5)
        a = init_params(dims, 1)
        b = init_params(dims, 2)
        assert a.enc_v_low.w.values.tobytes() != b.enc_v_low.w.values.tobytes()

    def test_weight_variance_in_band(self):
        dims = ModelDims(d_v=100, d_t=100, hidden_low=100, hidden_high=100)
        params = init_params(dims, 0)
        w = params.enc_v_low.w.values  # 100 x 300 = 3e4 entries
        assert 0.008 <= w.var() <= 0.012
        assert abs(w.mean()) < 0.01

    def test_biases_zero(self):
        dims = ModelDims(d_v=4, d_t=3, hidden_low=5, hidden_high=5)
        params = init_params(dims, 9)
        for name, tensor in params.named_parameters():
            if tensor.values.ndim == 1:
                assert not tensor.values.any(), name


class TestOptimizerStep:
    def test_first_step_moves_by_learning_rate(self):
        values = np.array([1.0])
        state = OptimizerState(1)
        optimizer_step(state, values, np.array([1.0]), lr=0.001)
        # bias-corrected first step is lr * g / (|g| + eps)
        assert values[0] == pytest.approx(1.0 - 0.001, abs=1e-6)
        assert state.step == 1

    def test_zero_gradient_leaves_params_unchanged(self):
        values = np.array([0.5, -0.5])
        state = OptimizerState(2)
        optimizer_step(state, values, np.zeros(2), lr=0.1)
        assert values.tolist() == [0.5, -0.5]

    def test_deterministic(self):
        def run():
            values = np.array([1.0, 2.0])
            state = OptimizerState(2)
            for _ in range(5):
                optimizer_step(state, values, values * 0.1, lr=0.01)
            return values.tobytes()

        assert run() == run()


class TestOptimizerStepOracle:
    def test_bytes_equal_per_tensor_loop(self):
        rng = np.random.default_rng(4)
        shapes = [(1,), (5,), (5, 3), (3,), (5, 5)]
        start = [rng.normal(size=s) for s in shapes]
        values = np.concatenate([x.ravel() for x in start])
        ref = [x.copy() for x in start]
        ms = [np.zeros(s) for s in shapes]
        vs = [np.zeros(s) for s in shapes]
        state = OptimizerState(values.size)
        for step, lr in enumerate([1e-3, 1e-3, 5e-2, 1e-4, 1e-3, 0.3], start=1):
            # magnitudes from 1e-6 to 10, both signs
            grads = [
                rng.choice([-1.0, 1.0], size=s) * 10.0 ** rng.uniform(-6.0, 1.0, size=s)
                for s in shapes
            ]
            optimizer_step(state, values, np.concatenate([g.ravel() for g in grads]), lr)
            oracles.ref_adam_step(ref, grads, ms, vs, step, lr)
            want = np.concatenate([x.ravel() for x in ref])
            assert values.tobytes() == want.tobytes(), step

    def test_params_must_match_the_state(self):
        state = OptimizerState(8)
        wrong_size = (np.zeros(7), np.zeros(7))
        wrong_grad = (np.zeros(8), np.zeros(9))
        not_flat = (np.zeros((2, 4)), np.zeros(8))
        for values, grad in (wrong_size, wrong_grad, not_flat):
            with pytest.raises(ContractError, match=r"must have shape \(8,\)"):
                optimizer_step(state, values, grad, lr=0.01)
        assert state.step == 0


class TestLrSchedule:
    def test_initial(self):
        assert lr_at_epoch(TrainConfig(), 0) == 0.001

    def test_decayed_once(self):
        assert lr_at_epoch(TrainConfig(), 10) == pytest.approx(0.0001)

    def test_before_first_boundary(self):
        assert lr_at_epoch(TrainConfig(), 9) == 0.001

    def test_non_increasing(self):
        config = TrainConfig(decay_every_epochs=3)
        lrs = [lr_at_epoch(config, e) for e in range(20)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_negative_epoch_rejected(self):
        with pytest.raises(ContractError):
            lr_at_epoch(TrainConfig(), -1)


def tiny_corpus(seed=0, pairs=6):
    spec = SynthSpec(
        num_pairs=pairs,
        num_events=pairs,
        clips_per_pair=(1, 2),
        frames_per_clip=(1, 2),
        words_per_sentence=(1, 2),
        d_v=4,
        d_t=4,
        noise_std=0.1,
        seed=seed,
    )
    return synth_generate(spec)[0]


def tiny_config(**kw):
    loss_kw = kw.pop("loss", {})
    return TrainConfig(
        epochs=kw.pop("epochs", 3),
        batch_size=4,
        seed=kw.pop("seed", 1),
        hidden_low=4,
        hidden_high=4,
        loss=LossConfig(**loss_kw),
        **kw,
    )


class TestTrain:
    def test_bitwise_deterministic(self):
        corpus = tiny_corpus()
        a = train(corpus, tiny_config())
        b = train(corpus, tiny_config())
        assert [bd.components() for bd in a.log] == [bd.components() for bd in b.log]
        for (_, ta), (_, tb) in zip(
            a.params.named_parameters(), b.params.named_parameters()
        ):
            assert ta.values.tobytes() == tb.values.tobytes()

    def test_nan_filled_kept_workspaces_move_no_bit(self, monkeypatch):
        """train keeps its two workspaces (the GRU kernel's, and the call's
        gradient and Adam buffers) from one call to the next; no bit may
        depend on what they held."""
        monkeypatch.setattr(training, "_SPARE_WORKSPACES", [])
        corpus = tiny_corpus()
        want = train(corpus, tiny_config())
        train(corpus, tiny_config())  # runs in blocks that fit every step
        (pair,) = training._SPARE_WORKSPACES
        for workspace in pair:
            workspace.block.fill(np.nan)
        got = train(corpus, tiny_config())
        assert training._SPARE_WORKSPACES == [pair]
        for workspace in pair:  # the call ran in the blocks
            assert not np.isnan(workspace.block).all()
        assert [bd.components() for bd in got.log] == [bd.components() for bd in want.log]
        assert got.params.values.tobytes() == want.params.values.tobytes()

    def test_zero_learning_rate_is_noop(self):
        corpus = tiny_corpus()
        config = tiny_config(epochs=1, learning_rate=0.0)
        result = train(corpus, config)
        fresh = init_params(
            ModelDims(d_v=4, d_t=4, hidden_low=4, hidden_high=4), config.seed
        )
        for (_, ta), (_, tb) in zip(
            result.params.named_parameters(), fresh.named_parameters()
        ):
            assert ta.values.tobytes() == tb.values.tobytes()

    def test_loss_decreases_on_small_corpus(self):
        corpus = tiny_corpus(seed=3, pairs=8)
        result = train(corpus, tiny_config(epochs=10, seed=2))
        assert result.log[-1].total < result.log[0].total
        # the epoch mean also moves with the shuffled batches: compare with
        # the same run on weights that never change
        frozen = train(corpus, tiny_config(epochs=10, seed=2, learning_rate=0.0))
        assert result.log[-1].total < frozen.log[-1].total

    def test_log_has_one_entry_per_epoch(self):
        corpus = tiny_corpus()
        result = train(corpus, tiny_config(epochs=4))
        assert len(result.log) == 4
        assert all(isinstance(bd, LossBreakdown) for bd in result.log)

    def test_fse_model_trains_flat_encoders_only(self):
        corpus = tiny_corpus()
        config = tiny_config(model="fse", epochs=2)
        result = train(corpus, config)
        fresh = init_params(
            ModelDims(d_v=4, d_t=4, hidden_low=4, hidden_high=4), config.seed
        )
        moved = dict(result.params.named_parameters())
        for name, tensor in fresh.named_parameters():
            same = moved[name].values.tobytes() == tensor.values.tobytes()
            if name.startswith(("enc_v_low", "enc_p_low")):
                assert not same, name
            else:
                assert same, name
        assert all(bd.match_low == 0.0 and bd.reconstruct == 0.0 for bd in result.log)

    def test_tau_zero_leaves_decoders_at_init(self):
        corpus = tiny_corpus()
        config = tiny_config(epochs=2, loss={"tau": 0.0})
        result = train(corpus, config)
        fresh = init_params(
            ModelDims(d_v=4, d_t=4, hidden_low=4, hidden_high=4), config.seed
        )
        moved = dict(result.params.named_parameters())
        for name, tensor in fresh.named_parameters():
            if name.startswith("dec_"):
                assert moved[name].values.tobytes() == tensor.values.tobytes(), name

    def test_strong_config_on_weak_corpus_rejected(self):
        spec = SynthSpec(num_pairs=10, num_events=3, seed=4, correspondence="weak",
                         clips_per_pair=(2, 3), d_v=4, d_t=4)
        corpus, _ = synth_generate(spec)
        with pytest.raises(ContractError, match="strong"):
            train(corpus, tiny_config())
        train(corpus, tiny_config(epochs=1, loss={"correspondence": "weak"}))

    def test_non_finite_embedding_names_epoch_and_batch(self, monkeypatch):
        def poisoned(dims, seed):
            params = init_params(dims, seed)
            params.values[:] = np.nan
            return params

        monkeypatch.setattr("hse.training.init_params", poisoned)
        with pytest.raises(TrainingDiverged) as caught:
            train(tiny_corpus(), tiny_config())
        assert str(caught.value) == "epoch 0, batch 0: non-finite embedding produced by encoder"

    def test_nan_loss_aborts_with_component_name(self, monkeypatch):
        corpus = tiny_corpus()

        def poisoned(batch, params, config, reconstruction_targets=None):
            from hse import tensorkit as tk

            node = tk.Tensor(0.0)
            return LossBreakdown(
                match_high=float("nan"),
                match_low=0.0,
                cluster_high=0.0,
                cluster_low=0.0,
                reconstruct=0.0,
                total=0.0,
                node=node,
            )

        monkeypatch.setattr("hse.training.total_loss", poisoned)
        with pytest.raises(TrainingDiverged, match="match_high"):
            train(corpus, tiny_config())

    @pytest.mark.parametrize(
        "config, field",
        [
            (TrainConfig(learning_rate=float("nan")), "learning_rate"),
            (TrainConfig(decay_factor=float("inf")), "decay_factor"),
            (TrainConfig(loss=LossConfig(alpha=float("nan"))), "alpha"),
            (TrainConfig(loss=LossConfig(tau=float("-inf"))), "tau"),
        ],
    )
    def test_non_finite_float_option_rejected(self, config, field):
        with pytest.raises(ConfigError, match=rf"\b{field} must be finite"):
            config.validate()

    def test_invalid_config_rejected(self):
        corpus = tiny_corpus()
        with pytest.raises(ConfigError):
            train(corpus, tiny_config(epochs=0))
        with pytest.raises(ConfigError):
            train(corpus, tiny_config(model="vse"))
