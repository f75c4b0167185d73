"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Training-based criteria
use pinned seeds and small synthetic corpora; the whole module is designed
to finish in a few minutes on one CPU core.
"""

import time

import numpy as np
import pytest

import oracles
from hse import evaluation
from hse import tensorkit as tk
from hse.cli import cli_dispatch
from hse.data import Corpus, SynthSpec, synth_generate
from hse.evaluation import (
    evaluate_retrieval,
    median_rank,
    recall_at_k,
    zeroshot_classify,
)
from hse.gradcheck import run_gradient_suite
from hse.losses import (
    LossConfig,
    loss_cluster_high,
    loss_cluster_low,
    loss_match_high,
    loss_match_low,
    loss_match_low_weak,
    loss_reconstruct,
)
from hse.model import DecodedBatch, pad_sequences
from hse.tensorkit import Tensor, rank_hinge
from hse.training import TrainConfig, train

# ---------------------------------------------------------------------------
# pinned experiment configurations

OVERFIT_SPEC = SynthSpec(
    num_pairs=32,
    num_events=4,
    clips_per_pair=(3, 3),
    frames_per_clip=(4, 4),
    words_per_sentence=(4, 4),
    d_v=16,
    d_t=16,
    noise_std=0.1,
    seed=7,
)
OVERFIT_EPOCHS = 60  # within the 200-epoch budget

HELDOUT_SPEC = SynthSpec(
    num_pairs=96,
    num_events=6,
    clips_per_pair=(3, 3),
    frames_per_clip=(4, 4),
    words_per_sentence=(4, 4),
    d_v=16,
    d_t=16,
    noise_std=0.1,
    seed=11,
)
HELDOUT_TRAIN = 64
HELDOUT_EPOCHS = 25

# high observation noise with per-pair-unique events, trained to convergence
# with one decay step: the regime where the dense low-level supervision
# measurably regularizes held-out retrieval
WEAK_TREND_SPEC = SynthSpec(
    num_pairs=80,
    num_events=512,
    clips_per_pair=(3, 3),
    frames_per_clip=(4, 4),
    words_per_sentence=(4, 4),
    d_v=24,
    d_t=12,
    noise_std=0.5,
    seed=0,
)
WEAK_TREND_TRAIN = 48
WEAK_TREND_EPOCHS = 80
WEAK_TREND_DECAY_EVERY = 40
WEAK_TREND_SEED = 0


def _config(seed, epochs, **loss_kw):
    return TrainConfig(
        epochs=epochs,
        batch_size=8,
        seed=seed,
        hidden_low=32,
        hidden_high=32,
        decay_every_epochs=100,
        loss=LossConfig(**loss_kw),
        **{},
    )


def _mean_r1(params, corpus, mode="hierarchical"):
    p2v, v2p = evaluate_retrieval(params, corpus, topk=(1,), mode=mode)
    return (p2v.recall_at[1] + v2p.recall_at[1]) / 2.0


@pytest.fixture(scope="module")
def overfit_run():
    corpus, labels = synth_generate(OVERFIT_SPEC)
    config = _config(seed=7, epochs=OVERFIT_EPOCHS, tau=5e-4, correspondence="strong")
    started = time.monotonic()
    result = train(corpus, config)
    elapsed = time.monotonic() - started
    return corpus, labels, result, elapsed


@pytest.fixture(scope="module")
def heldout_split():
    corpus, _ = synth_generate(HELDOUT_SPEC)
    train_set = Corpus(pairs=corpus.pairs[:HELDOUT_TRAIN], correspondence="strong")
    test_set = Corpus(pairs=corpus.pairs[HELDOUT_TRAIN:], correspondence="strong")
    return train_set, test_set


def test_criterion_1_gradient_suite():
    started = time.monotonic()
    results = run_gradient_suite(seed=1, trials_per_component=16)
    elapsed = time.monotonic() - started
    total_trials = sum(r.trials for r in results)
    worst = max(r.max_rel_err for r in results)
    for r in results:
        assert r.max_rel_err < 1e-4, (r.component, r.max_rel_err)
    assert total_trials >= 100
    assert elapsed < 120.0
    print(
        f"\ncriterion 1: PASS gradient suite ({total_trials} trials, "
        f"max rel err {worst:.2e}, {elapsed:.0f}s)"
    )


def _tensor_batch(rng, k, d):
    return Tensor(rng.normal(size=(k, d))), Tensor(rng.normal(size=(k, d)))


def _nested(rng, k, d, aligned):
    """Per-pair [n, d] clip and [m, d] sentence embedding groups."""
    clips, sents = [], []
    for _ in range(k):
        n = int(rng.integers(1, 4))
        m = n if aligned else int(rng.integers(1, 4))
        clips.append(rng.normal(size=(n, d)))
        sents.append(rng.normal(size=(m, d)))
    return clips, sents


def _stacked(groups):
    """The embedding matrix of per-pair row groups, and the per-pair counts."""
    return Tensor(np.concatenate(groups)), [len(g) for g in groups]


def _decoded(low_rows, unit_rows):
    """A DecodedBatch holding the given generated embeddings and, zero-padded,
    the given generated feature rows of each unit."""
    padded, lengths = pad_sequences(unit_rows)
    return DecodedBatch(
        low=Tensor(np.stack(low_rows)),
        units=Tensor(padded.reshape(-1, padded.shape[2])),
        lengths=lengths,
    )


def _padded(unit_rows):
    """The [N, T, D] zero-padded feature rows of each unit, as EncodedBatch.units."""
    return pad_sequences(unit_rows)[0]


def _avg_match(clips, sentences):
    """Mean cosine similarity over every clip/sentence combination of one
    pair, as loss_match_low_weak forms each entry of its matrix."""
    sims = tk.cosine(Tensor(clips), Tensor(sentences))
    return tk.segment_mean(sims, [len(clips)], [len(sentences)]).item()


def _rank_matrix(queries, gallery):
    """1-based rank of each query's true match, the gallery row of the same
    index, as evaluate_retrieval ranks: over one tk.cosine matrix."""
    sims = tk.cosine(Tensor(queries), Tensor(gallery)).values
    return evaluation._ranks(sims, np.arange(len(queries)))


def test_criterion_2_loss_oracles():
    rng = np.random.default_rng(2024)
    instances = 200
    for _ in range(instances):
        k = int(rng.integers(1, 6))
        d = int(rng.integers(2, 9))
        margin = float(rng.uniform(0.05, 0.5))

        videos, paragraphs = _tensor_batch(rng, k, d)
        got = loss_match_high(videos, paragraphs, margin).item()
        want = oracles.ref_loss_match_high(videos.values, paragraphs.values, margin)
        assert abs(got - want) <= 1e-10

        got = loss_cluster_high(videos, paragraphs, margin).item()
        want = oracles.ref_loss_cluster_high(videos.values, paragraphs.values, margin)
        assert abs(got - want) <= 1e-10

        clips, sents = _nested(rng, k, d, aligned=True)
        got = loss_match_low(*_stacked(clips), *_stacked(sents), margin).item()
        want = oracles.ref_loss_match_low(clips, sents, margin)
        assert abs(got - want) <= 1e-10

        got = loss_cluster_low(_stacked(clips)[0], _stacked(sents)[0], margin).item()
        want = oracles.ref_loss_cluster_low(clips, sents, margin)
        assert abs(got - want) <= 1e-10

        wclips, wsents = _nested(rng, k, d, aligned=False)
        got = loss_match_low_weak(*_stacked(wclips), *_stacked(wsents), margin).item()
        want = oracles.ref_loss_match_low_weak(wclips, wsents, margin)
        assert abs(got - want) <= 1e-10

        n = int(rng.integers(1, 4))
        target_low = [rng.normal(size=d) for _ in range(n)]
        decoded_low = [rng.normal(size=d) for _ in range(n)]
        raw = [rng.normal(size=(int(rng.integers(1, 4)), 3)) for _ in range(n)]
        decoded_units = [rng.normal(size=(r.shape[0], 3)) for r in raw]
        decoded = _decoded(decoded_low, decoded_units)
        got = loss_reconstruct(decoded, np.stack(target_low), _padded(raw)).item()
        want = oracles.ref_loss_reconstruct(target_low, decoded_low, decoded_units, raw)
        assert abs(got - want) <= 1e-10

        # averaged similarity matches the double loop to 1e-12
        cs = rng.normal(size=(int(rng.integers(1, 5)), d))
        ss = rng.normal(size=(int(rng.integers(1, 5)), d))
        got = _avg_match(cs, ss)
        want = oracles.ref_avg_match(cs, ss)
        assert abs(got - want) <= 1e-12

    # structural identity: the weak loss IS the ranking kernel applied to
    # the averaged-similarity matrix, exactly
    for _ in range(50):
        k = int(rng.integers(2, 5))
        clips, sents = _nested(rng, k, 5, aligned=False)
        direct = loss_match_low_weak(*_stacked(clips), *_stacked(sents), 0.2).item()
        rows = [
            [_avg_match(clips[a], sents[b]) for b in range(k)]
            for a in range(k)
        ]
        via_matrix = rank_hinge(Tensor(rows), 0.2).item()
        assert direct == via_matrix

    print(f"\ncriterion 2: PASS loss oracles ({instances} instances per loss)")


def test_criterion_3_overfit_retrieval(overfit_run):
    corpus, _, result, elapsed = overfit_run
    p2v, v2p = evaluate_retrieval(result.params, corpus, topk=(1,))
    assert p2v.recall_at[1] == 1.0
    assert v2p.recall_at[1] == 1.0
    assert OVERFIT_EPOCHS <= 200
    assert elapsed < 300.0
    print(
        f"\ncriterion 3: PASS overfit retrieval (R@1 = 1.0 both directions, "
        f"{OVERFIT_EPOCHS} epochs, {elapsed:.0f}s)"
    )


def test_criterion_4_hierarchy_trend(heldout_split):
    train_set, test_set = heldout_split
    runs = {}
    for name, kw, mode in (
        ("hse", dict(tau=5e-4, correspondence="strong"), "hierarchical"),
        ("hse_tau0", dict(tau=0.0, correspondence="strong"), "hierarchical"),
        ("fse", dict(tau=0.0, correspondence="none"), "flat"),
    ):
        config = _config(seed=11, epochs=HELDOUT_EPOCHS, **kw)
        if name == "fse":
            config.model = "fse"
        result = train(train_set, config)
        runs[name] = _mean_r1(result.params, test_set, mode=mode)
    assert runs["hse"] >= runs["hse_tau0"] - 0.05
    assert runs["hse_tau0"] > runs["fse"]
    print(
        f"\ncriterion 4: PASS hierarchy trend (R@1 hse={runs['hse']:.3f} >= "
        f"hse[tau=0]={runs['hse_tau0']:.3f} - 0.05 > fse={runs['fse']:.3f})"
    )


def test_criterion_5_weak_correspondence_trend():
    corpus, _ = synth_generate(WEAK_TREND_SPEC)
    train_set = Corpus(pairs=corpus.pairs[:WEAK_TREND_TRAIN], correspondence="strong")
    test_set = Corpus(pairs=corpus.pairs[WEAK_TREND_TRAIN:], correspondence="strong")
    scores = {}
    for mode in ("weak", "none"):
        config = TrainConfig(
            epochs=WEAK_TREND_EPOCHS,
            batch_size=8,
            seed=WEAK_TREND_SEED,
            hidden_low=32,
            hidden_high=32,
            decay_every_epochs=WEAK_TREND_DECAY_EVERY,
            loss=LossConfig(tau=0.0, correspondence=mode),
        )
        result = train(train_set, config)
        scores[mode] = _mean_r1(result.params, test_set)
    assert scores["weak"] > scores["none"]
    print(
        f"\ncriterion 5: PASS weak-correspondence trend "
        f"(R@1 weak={scores['weak']:.3f} > none={scores['none']:.3f})"
    )


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        sims = rng.uniform(-1.0, 1.0, size=(n, n))
        # the pinned rank rule applied to a raw similarity matrix
        ranks = 1 + np.sum(sims > np.diag(sims)[:, None], axis=1)
        for k in (1, 5, 50, n):
            assert recall_at_k(ranks, k) == oracles.ref_recall_at_k(ranks.tolist(), k)
        assert median_rank(ranks) == oracles.ref_median_rank(ranks.tolist())
    print("\ncriterion 6: PASS metric oracles (1000 matrices, sizes 2-200, exact)")


def test_criterion_7_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    assert cli_dispatch(
        ["synth", "--pairs", "8", "--events", "8", "--clips", "1:2", "--frames", "1:2",
         "--words", "1:2", "--dv", "4", "--dt", "4", "--seed", "5", "--out", str(corpus_path)]
    ) == 0
    artifacts = {}
    for tag in ("a", "b"):
        run_dir = tmp_path / f"run_{tag}"
        assert cli_dispatch(
            ["train", "--corpus", str(corpus_path), "--out", str(run_dir),
             "--epochs", "3", "--seed", "13", "--hidden-low", "6", "--hidden-high", "6",
             "--batch-size", "4"]
        ) == 0
        eval_dir = tmp_path / f"eval_{tag}"
        assert cli_dispatch(
            ["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
             "--corpus", str(corpus_path), "--out", str(eval_dir)]
        ) == 0
        artifacts[tag] = (
            (run_dir / "checkpoint.bin").read_bytes(),
            (run_dir / "loss_log.txt").read_bytes(),
            (eval_dir / "retrieval.txt").read_bytes(),
            (eval_dir / "retrieval.json").read_bytes(),
        )
    assert artifacts["a"] == artifacts["b"]
    print("\ncriterion 7: PASS determinism (checkpoints, loss logs, reports bitwise equal)")


def test_criterion_8_scale_invariance():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(10_000):
        d = int(rng.integers(2, 9))
        u = rng.normal(size=d)
        w = rng.normal(size=d)
        a, b = rng.uniform(1e-3, 1e3, size=2)
        base = tk.cosine(Tensor([u]), Tensor([w])).item()
        scaled = tk.cosine(Tensor([a * u]), Tensor([b * w])).item()
        worst = max(worst, abs(base - scaled))
    assert worst < 1e-12

    for trial in range(50):
        n = int(rng.integers(2, 60))
        q = rng.normal(size=(n, 8))
        g = rng.normal(size=(n, 8))
        base_ranks = _rank_matrix(q, g)
        sq = rng.uniform(1e-2, 1e2, size=(n, 1))
        sg = rng.uniform(1e-2, 1e2, size=(n, 1))
        assert np.array_equal(base_ranks, _rank_matrix(q * sq, g * sg))

        labels = rng.normal(size=(7, 8))
        base_pred = np.argmax(tk.cosine(Tensor(q), Tensor(labels)).values, axis=1)
        scaled_pred = np.argmax(
            tk.cosine(Tensor(q * sq), Tensor(labels * rng.uniform(1e-2, 1e2, size=(7, 1)))).values,
            axis=1,
        )
        assert np.array_equal(base_pred, scaled_pred)
    print(f"\ncriterion 8: PASS scale invariance (max deviation {worst:.2e})")


def test_criterion_9_reconstruction_identity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        d_low, d_feat = 4, 3
        target_low = [rng.normal(size=d_low) for _ in range(n)]
        raw = [rng.normal(size=(int(rng.integers(1, 4)), d_feat)) for _ in range(n)]
        targets = np.stack(target_low)
        assert loss_reconstruct(_decoded(target_low, raw), targets, _padded(raw)).item() == 0.0

        perturbed_low = [x.copy() for x in target_low]
        perturbed_units = [unit.copy() for unit in raw]
        if rng.random() < 0.5:
            i = int(rng.integers(0, n))
            perturbed_low[i][int(rng.integers(0, d_low))] += rng.uniform(1e-6, 1.0)
        else:
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, raw[i].shape[0]))
            perturbed_units[i][j, int(rng.integers(0, d_feat))] += rng.uniform(1e-6, 1.0)
        decoded = _decoded(perturbed_low, perturbed_units)
        assert loss_reconstruct(decoded, targets, _padded(raw)).item() > 0.0
    print("\ncriterion 9: PASS reconstruction identity (zero iff exact)")


def test_criterion_10_zero_shot_transfer(overfit_run):
    corpus, labels, result, _ = overfit_run
    labeled_clips = []
    for video, _ in corpus.pairs:
        labeled_clips.extend(zip(video.clips, labels.clip_labels[video.id]))
    report = zeroshot_classify(result.params, labeled_clips, labels.label_phrases)
    chance = 1.0 / len(labels.label_phrases)
    assert report.top1 >= 3.0 * chance
    assert report.top1 >= 0.75
    print(
        f"\ncriterion 10: PASS zero-shot transfer (top-1 {report.top1:.3f} vs "
        f"chance {chance:.3f}, {len(labels.label_phrases)} labels)"
    )


def test_criterion_11_partial_observation_trend(overfit_run):
    corpus, _, result, _ = overfit_run
    r1 = {}
    for units in (1, 3):
        p2v, v2p = evaluate_retrieval(result.params, corpus, topk=(1,), max_units=units)
        r1[units] = (p2v.recall_at[1], v2p.recall_at[1])
    assert r1[3][0] >= r1[1][0]
    assert r1[3][1] >= r1[1][1]
    print(
        f"\ncriterion 11: PASS partial-observation trend "
        f"(R@1 at 3 units {r1[3]} >= at 1 unit {r1[1]})"
    )
