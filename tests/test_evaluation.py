import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hse import evaluation
from hse import tensorkit as tk
from hse.data import Corpus, ParagraphSample, SynthSpec, VideoSample, synth_generate
from hse.errors import ContractError, DegenerateInputError, ShapeError
from hse.evaluation import (
    encode_corpus,
    evaluate_retrieval,
    median_rank,
    recall_at_k,
    zeroshot_classify,
)
from hse.model import ModelDims, encode_sequences
from hse.training import init_params


def on_circle(*angles):
    return np.stack([[math.cos(a), math.sin(a)] for a in angles])


def rank_matrix(queries, gallery):
    """1-based rank of each query's true match, the gallery row of the same
    index, as evaluate_retrieval ranks: over one tk.cosine matrix."""
    sims = tk.cosine(tk.Tensor(queries), tk.Tensor(gallery)).values
    return evaluation._ranks(sims, np.arange(len(queries)))


class TestRankMatrix:
    def test_identity_structure_all_rank_one(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(5, 4))
        assert rank_matrix(emb, emb).tolist() == [1, 1, 1, 1, 1]

    def test_one_stronger_distractor(self):
        # query 0 has cosine 0.5 with its own item, 0.9 and 0.2 with others
        queries = on_circle(0.0, 2.0, 2.5)
        gallery = on_circle(math.acos(0.5), math.acos(0.9), math.acos(0.2))
        ranks = rank_matrix(queries, gallery)
        assert ranks[0] == 2

    def test_all_ties_rank_one(self):
        queries = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        gallery = np.array([[2.0, 0.0], [4.0, 0.0], [1.0, 0.0]])  # same direction
        assert rank_matrix(queries, gallery).tolist() == [1, 1, 1]

    def test_rescaling_leaves_ranks_identical(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(20, 6))
        g = rng.normal(size=(20, 6))
        base = rank_matrix(q, g)
        scales_q = rng.uniform(0.01, 100.0, size=(20, 1))
        scales_g = rng.uniform(0.01, 100.0, size=(20, 1))
        rescaled = rank_matrix(q * scales_q, g * scales_g)
        assert np.array_equal(base, rescaled)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            rank_matrix(np.zeros((2, 3)), np.ones((2, 3)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match=r"got \[2, 3\] and \[2, 4\]"):
            rank_matrix(np.ones((2, 3)), np.ones((2, 4)))


class TestMetrics:
    def test_recall_and_median_example(self):
        ranks = [1, 3, 10]
        assert recall_at_k(ranks, 1) == pytest.approx(1 / 3)
        assert recall_at_k(ranks, 5) == pytest.approx(2 / 3)
        assert median_rank(ranks) == 3

    def test_all_rank_one(self):
        assert recall_at_k([1, 1, 1], 1) == 1.0
        assert median_rank([1, 1, 1]) == 1

    def test_lower_median_for_even_counts(self):
        assert median_rank([4, 1, 3, 2]) == 2

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(2)
        ranks = rng.integers(1, 50, size=30)
        values = [recall_at_k(ranks, k) for k in range(1, 51)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            recall_at_k([], 1)
        with pytest.raises(ContractError):
            median_rank([])
        with pytest.raises(ContractError):
            recall_at_k([1], 0)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            q = rng.normal(size=(n, 5))
            g = rng.normal(size=(n, 5))
            ranks = rank_matrix(q, g)
            sims = [[oracles.ref_match(qi, gj) for gj in g] for qi in q]
            assert ranks.tolist() == oracles.ref_ranks(sims)
            for k in (1, 5, n):
                assert recall_at_k(ranks, k) == oracles.ref_recall_at_k(ranks.tolist(), k)
            assert median_rank(ranks) == oracles.ref_median_rank(ranks.tolist())


def small_corpus(pairs=6, seed=0, num_events=3, clips_per_pair=(2, 3)):
    spec = SynthSpec(
        num_pairs=pairs,
        num_events=num_events,
        clips_per_pair=clips_per_pair,
        frames_per_clip=(1, 2),
        words_per_sentence=(1, 2),
        d_v=4,
        d_t=4,
        noise_std=0.2,
        seed=seed,
    )
    return synth_generate(spec)


class TestEvaluateRetrieval:
    def setup_method(self):
        self.corpus, self.labels = small_corpus()
        self.params = init_params(ModelDims(d_v=4, d_t=4, hidden_low=5, hidden_high=5), 7)

    def test_singleton_corpus_is_rank_one(self):
        corpus = Corpus(pairs=self.corpus.pairs[:1])
        p2v, v2p = evaluate_retrieval(self.params, corpus, topk=(1,))
        assert p2v.recall_at[1] == 1.0
        assert v2p.recall_at[1] == 1.0
        assert p2v.median_rank == 1

    def test_untrained_params_near_chance(self):
        corpus, _ = small_corpus(pairs=100, seed=5, num_events=10, clips_per_pair=(2, 2))
        params = init_params(ModelDims(d_v=4, d_t=4, hidden_low=6, hidden_high=6), 3)
        p2v, _ = evaluate_retrieval(params, corpus, topk=(1,))
        assert 0.0 <= p2v.recall_at[1] <= 0.1

    def test_report_fields(self):
        p2v, v2p = evaluate_retrieval(self.params, self.corpus, topk=(1, 5, 50))
        n = len(self.corpus)
        for report in (p2v, v2p):
            assert len(report.ranks) == n
            assert all(1 <= r <= n for r in report.ranks)
            assert report.recall_at[50] == 1.0  # k beyond corpus size saturates
        assert {p2v.direction, v2p.direction} == {
            "paragraph_to_video",
            "video_to_paragraph",
        }

    @pytest.mark.parametrize("mode", ["hierarchical", "flat"])
    def test_ranks_equal_rank_matrix_both_ways(self, mode):
        corpus, _ = small_corpus(pairs=23, seed=6, num_events=23, clips_per_pair=(1, 4))
        params = init_params(ModelDims(d_v=4, d_t=4, hidden_low=5, hidden_high=6), 13)
        p2v, v2p = evaluate_retrieval(params, corpus, topk=(1,), mode=mode)
        videos, paragraphs = encode_corpus(params, corpus, mode=mode)
        assert p2v.ranks == rank_matrix(paragraphs, videos).tolist()
        assert v2p.ranks == rank_matrix(videos, paragraphs).tolist()

    def test_flat_mode_uses_low_level_encoders(self):
        hier = evaluate_retrieval(self.params, self.corpus, topk=(1,))[0]
        flat = evaluate_retrieval(self.params, self.corpus, topk=(1,), mode="flat")[0]
        assert hier.ranks != flat.ranks or hier.recall_at != flat.recall_at


def count_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that appends to the returned list
    on every call."""
    calls, inner = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestEncodeCorpusChunks:
    @pytest.mark.parametrize(
        "mode, max_units",
        [
            pytest.param("hierarchical", None, id="hierarchical"),
            pytest.param("flat", None, id="flat"),
            pytest.param("hierarchical", 1, id="hierarchical-max_units_1"),
            pytest.param("flat", 1, id="flat-max_units_1"),
        ],
    )
    def test_chunk_size_does_not_change_embeddings(self, monkeypatch, mode, max_units):
        corpus, _ = small_corpus(pairs=37, seed=4, num_events=37, clips_per_pair=(1, 4))
        params = init_params(ModelDims(d_v=4, d_t=4, hidden_low=5, hidden_high=6), 11)
        calls = count_calls(monkeypatch, evaluation, "encode_flat_batch" if mode == "flat" else "encode_batch")
        few_pairs = evaluation._run_bytes(params.enc_v_low, 12, 2)
        encoded, chunks = [], []
        # below one pair, a few pairs, the whole corpus
        for budget in (1, few_pairs, 1 << 40):
            monkeypatch.setattr(evaluation, "ENCODE_CHUNK_BYTES", budget)
            calls.clear()
            videos, paragraphs = encode_corpus(params, corpus, mode=mode, max_units=max_units)
            encoded.append(videos.tobytes() + paragraphs.tobytes())
            chunks.append(len(calls) // 2)  # one call per modality and chunk
        assert len(set(encoded)) == 1
        assert chunks[0] == len(corpus) and 1 < chunks[1] < len(corpus) and chunks[2] == 1

    def test_max_units_sizes_chunks_after_truncation(self, monkeypatch):
        corpus, _ = small_corpus(pairs=20, seed=3, num_events=20, clips_per_pair=(3, 4))
        params = init_params(ModelDims(d_v=4, d_t=4, hidden_low=5, hidden_high=6), 2)
        calls = count_calls(monkeypatch, evaluation, "encode_batch")
        # the truncated corpus's largest run: over the first clips
        # (sentences), or over one embedding per video (paragraph)
        n = len(corpus)
        budget = max(
            evaluation._run_bytes(params.enc_v_low, n, max(len(v.clips[0]) for v, _ in corpus.pairs)),
            evaluation._run_bytes(params.enc_p_low, n, max(len(p.sentences[0]) for _, p in corpus.pairs)),
            evaluation._run_bytes(params.enc_v_high, n, 1),
            evaluation._run_bytes(params.enc_p_high, n, 1),
        )
        monkeypatch.setattr(evaluation, "ENCODE_CHUNK_BYTES", budget)
        encode_corpus(params, corpus, max_units=1)
        assert len(calls) == 2  # one chunk
        encode_corpus(params, corpus)
        assert len(calls) > 4

    def test_peak_memory_stays_within_twice_the_budget(self, monkeypatch):
        spec = SynthSpec(
            num_pairs=64,
            num_events=8,
            clips_per_pair=(2, 5),
            frames_per_clip=(2, 8),
            words_per_sentence=(2, 8),
            d_v=16,
            d_t=16,
            noise_std=0.1,
            seed=8,
        )
        corpus, _ = synth_generate(spec)
        params = init_params(ModelDims(d_v=16, d_t=16, hidden_low=32, hidden_high=32), 5)
        clips = [c for v, _ in corpus.pairs for c in v.clips]
        sentences = [s for _, p in corpus.pairs for s in p.sentences]
        whole = max(
            evaluation._run_bytes(params.enc_v_low, len(clips), max(map(len, clips))),
            evaluation._run_bytes(params.enc_p_low, len(sentences), max(map(len, sentences))),
        )
        budget = whole // 4  # the corpus's low-level runs need 4 times the budget

        def peak(budget):
            monkeypatch.setattr(evaluation, "ENCODE_CHUNK_BYTES", budget)
            tracemalloc.start()
            try:
                encode_corpus(params, corpus)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(budget) < 2 * budget
        # the whole corpus in one chunk takes more
        assert peak(1 << 40) > 2 * budget


class TestChunkPlanner:
    def setup_method(self):
        params = init_params(ModelDims(d_v=4, d_t=3, hidden_low=5, hidden_high=6), 1)
        self.grus = [params.enc_v_low, params.enc_p_low]

    def plan(self, monkeypatch, rows, steps, budget):
        """Chunks of items that add rows[j][i] sequences of steps[j][i]
        steps to the run of self.grus[j]."""
        monkeypatch.setattr(evaluation, "ENCODE_CHUNK_BYTES", budget)
        return evaluation._chunks(list(zip(self.grus, rows, steps)))

    def fits(self, rows, steps, chunk, budget):
        return all(
            evaluation._run_bytes(g, sum(r[chunk]), max(t[chunk])) <= budget
            for g, r, t in zip(self.grus, rows, steps)
        )

    def test_oversize_item_is_a_chunk_alone(self, monkeypatch):
        rows = [[1] * 6, [1] * 6]
        steps = [[2] * 6, [2, 50, 2, 2, 2, 50]]
        budget = max(evaluation._run_bytes(g, 3, 2) for g in self.grus)
        chunks = self.plan(monkeypatch, rows, steps, budget)
        assert chunks == [slice(0, 1), slice(1, 2), slice(2, 5), slice(5, 6)]

    def test_small_budget_gives_more_than_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(0)
        rows, steps = rng.integers(1, 4, size=(2, 20)), rng.integers(1, 12, size=(2, 20))
        assert self.plan(monkeypatch, rows, steps, 1 << 40) == [slice(0, 20)]
        assert len(self.plan(monkeypatch, rows, steps, evaluation._run_bytes(self.grus[0], 8, 11))) > 1

    def test_no_items_no_chunks(self, monkeypatch):
        assert self.plan(monkeypatch, [[], []], [[], []], 1 << 20) == []

    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=60),
        budget=st.integers(min_value=1, max_value=40_000),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_chunks_are_nonempty_consecutive_and_greedy(self, count, budget, seed):
        rng = np.random.default_rng(seed)
        rows, steps = rng.integers(1, 4, size=(2, count)), rng.integers(1, 40, size=(2, count))
        with pytest.MonkeyPatch.context() as monkeypatch:
            chunks = self.plan(monkeypatch, rows, steps, budget)
        assert chunks[0].start == 0 and chunks[-1].stop == count
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        for chunk in chunks:
            assert chunk.stop > chunk.start
            assert chunk.stop - chunk.start == 1 or self.fits(rows, steps, chunk, budget)
            # a chunk ends where the next item would not fit
            assert chunk.stop == count or not self.fits(rows, steps, slice(chunk.start, chunk.stop + 1), budget)


class TestEvaluatePartial:
    def setup_method(self):
        self.corpus, _ = small_corpus(pairs=5, seed=2, clips_per_pair=(3, 3))
        self.params = init_params(ModelDims(d_v=4, d_t=4, hidden_low=5, hidden_high=5), 9)

    def test_no_truncation_equals_full_eval(self):
        full = evaluate_retrieval(self.params, self.corpus, topk=(1, 5))
        partial = evaluate_retrieval(self.params, self.corpus, topk=(1, 5), max_units=10)
        for a, b in zip(full, partial):
            assert a.ranks == b.ranks
            assert a.recall_at == b.recall_at

    def test_truncation_encodes_first_units_only(self):
        truncated_pairs = [
            (VideoSample(v.id, v.clips[:1]), ParagraphSample(p.id, p.sentences[:1]))
            for v, p in self.corpus.pairs
        ]
        manual = Corpus(pairs=truncated_pairs, correspondence="strong")
        a = encode_corpus(self.params, self.corpus, max_units=1)
        b = encode_corpus(self.params, manual)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_max_units_must_be_positive(self):
        with pytest.raises(ContractError):
            evaluate_retrieval(self.params, self.corpus, max_units=0)


class TestZeroShot:
    def test_matching_encoders_predict_matching_label(self):
        dims = ModelDims(d_v=3, d_t=3, hidden_low=4, hidden_high=4)
        params = init_params(dims, 11)
        # share the low-level encoder weights across modalities so a clip
        # equal to a label phrase lands exactly on its embedding
        for field in ("w", "u_zr", "u_c", "b"):
            getattr(params.enc_p_low, field).values = getattr(
                params.enc_v_low, field
            ).values.copy()
        rng = np.random.default_rng(4)
        phrases = [rng.normal(size=(2, 3)) for _ in range(3)]
        clips = [(phrases[2].copy(), 2), (phrases[0].copy(), 0)]
        report = zeroshot_classify(params, clips, phrases)
        assert report.predicted == [2, 0]
        assert report.top1 == 1.0

    def test_top5_clamps_to_label_count(self):
        dims = ModelDims(d_v=3, d_t=3, hidden_low=4, hidden_high=4)
        params = init_params(dims, 12)
        rng = np.random.default_rng(5)
        phrases = [rng.normal(size=(1, 3)) for _ in range(3)]
        clips = [(rng.normal(size=(2, 3)), int(rng.integers(0, 3))) for _ in range(6)]
        report = zeroshot_classify(params, clips, phrases)
        assert report.top5 == 1.0  # rank within 3 labels is always <= 3
        assert report.top1 <= report.top5

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_the_phrases_is_rejected(self, label):
        params = init_params(ModelDims(d_v=3, d_t=3, hidden_low=4, hidden_high=4), 12)
        rng = np.random.default_rng(5)
        phrases = [rng.normal(size=(1, 3)) for _ in range(3)]
        clips = [(rng.normal(size=(2, 3)), 0), (rng.normal(size=(2, 3)), label)]
        with pytest.raises(ContractError, match=rf"clip 1 has label {label} outside \[0, 3\)"):
            zeroshot_classify(params, clips, phrases)

    def test_tied_labels_follow_argmax_and_favor_the_true_label(self):
        dims = ModelDims(d_v=3, d_t=3, hidden_low=4, hidden_high=4)
        params = init_params(dims, 14)
        for field in ("w", "u_zr", "u_c", "b"):
            getattr(params.enc_p_low, field).values = getattr(
                params.enc_v_low, field
            ).values.copy()
        rng = np.random.default_rng(7)
        tied = rng.normal(size=(2, 3))
        # the phrase at label 1 repeats at labels 3..8: seven exact ties
        phrases = [rng.normal(size=(2, 3)), tied, rng.normal(size=(3, 3))]
        phrases += [tied.copy() for _ in range(6)]
        clips = [(tied.copy(), 8), (tied.copy(), 1), (tied.copy(), 0)]
        clips += [(rng.normal(size=(2, 3)), int(rng.integers(0, 9))) for _ in range(5)]
        report = zeroshot_classify(params, clips, phrases)
        clip_embs = encode_sequences(params.enc_v_low, [c for c, _ in clips]).values
        label_embs = encode_sequences(params.enc_p_low, phrases).values
        sims = oracles.ref_sim_matrix(clip_embs, label_embs)
        true_first = [[row[label]] + row for row, (_, label) in zip(sims, clips)]
        ranks = [oracles.ref_ranks([row])[0] for row in true_first]
        first_max = [row.index(max(row)) for row in sims]
        assert report.predicted[:3] == [1, 1, 1]  # the first of the tied labels
        assert report.predicted == first_max
        assert ranks[:2] == [1, 1]  # seven tied labels, yet a top-5 hit
        assert report.top1 == sum(p == label for p, (_, label) in zip(first_max, clips)) / 8
        assert report.top5 == sum(r <= 5 for r in ranks) / 8

    def test_report_does_not_depend_on_the_chunk_budget(self, monkeypatch):
        params = init_params(ModelDims(d_v=3, d_t=4, hidden_low=5, hidden_high=4), 15)
        rng = np.random.default_rng(8)
        phrases = [rng.normal(size=(int(n), 4)) for n in rng.integers(1, 5, size=9)]
        clips = [(rng.normal(size=(int(n), 3)), int(rng.integers(0, 9))) for n in rng.integers(1, 7, size=31)]
        calls = count_calls(monkeypatch, evaluation, "encode_sequences")
        reports, chunks = [], []
        for budget in (1, evaluation._run_bytes(params.enc_v_low, 5, 6), 1 << 40):
            monkeypatch.setattr(evaluation, "ENCODE_CHUNK_BYTES", budget)
            calls.clear()
            reports.append(json.dumps(zeroshot_classify(params, clips, phrases).summary()))
            chunks.append(len(calls))
        assert len(set(reports)) == 1
        assert chunks[0] == 9 + 31 and 2 < chunks[1] < 9 + 31 and chunks[2] == 2

    def test_empty_labels_rejected(self):
        params = init_params(ModelDims(d_v=2, d_t=2, hidden_low=2, hidden_high=2), 0)
        with pytest.raises(ContractError):
            zeroshot_classify(params, [(np.ones((1, 2)), 0)], [])

    def test_argmax_invariant_to_rescaling(self):
        rng = np.random.default_rng(6)
        clip_embs = rng.normal(size=(30, 8))
        label_embs = rng.normal(size=(7, 8))
        base = np.argmax(tk.cosine(tk.Tensor(clip_embs), tk.Tensor(label_embs)).values, axis=1)
        scaled = np.argmax(
            tk.cosine(
                tk.Tensor(clip_embs * rng.uniform(0.01, 100.0, size=(30, 1))),
                tk.Tensor(label_embs * rng.uniform(0.01, 100.0, size=(7, 1))),
            ).values,
            axis=1,
        )
        assert np.array_equal(base, scaled)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=1, max_value=15),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_recall_bounds_property(n, k, seed):
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, n + 1, size=n)
    value = recall_at_k(ranks, k)
    assert 0.0 <= value <= 1.0
    assert recall_at_k(ranks, n) == 1.0
