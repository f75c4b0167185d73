import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hse.data import (
    Corpus,
    ParagraphSample,
    SynthSpec,
    VideoSample,
    load_corpus,
    load_labels,
    load_checkpoint,
    save_checkpoint,
    save_corpus,
    save_labels,
    synth_generate,
)
from hse.errors import CheckpointError, ContractError, CorpusError
from hse.model import ModelDims
from hse.training import init_params


class TestSynthGenerate:
    def test_deterministic_in_seed(self):
        spec = SynthSpec(num_pairs=6, num_events=3, seed=7)
        a, la = synth_generate(spec)
        b, lb = synth_generate(spec)
        assert a == b
        assert la.clip_labels == lb.clip_labels
        assert all(np.array_equal(x, y) for x, y in zip(la.label_phrases, lb.label_phrases))

    def test_counts(self):
        spec = SynthSpec(num_pairs=32, clips_per_pair=(3, 3), frames_per_clip=(4, 4), seed=0)
        corpus, _ = synth_generate(spec)
        assert len(corpus) == 32
        assert sum(v.n for v, _ in corpus.pairs) == 96
        assert all(c.shape[0] == 4 for v, _ in corpus.pairs for c in v.clips)

    def test_zero_noise_identity_projections_match_across_modalities(self):
        spec = SynthSpec(num_pairs=4, num_events=3, d_v=6, d_t=6, noise_std=0.0, seed=2)
        corpus, _ = synth_generate(spec)
        for video, paragraph in corpus.pairs:
            for clip, sentence in zip(video.clips, paragraph.sentences):
                assert np.array_equal(clip.mean(axis=0), sentence.mean(axis=0))

    def test_strong_mode_aligns_counts(self):
        corpus, _ = synth_generate(SynthSpec(num_pairs=8, clips_per_pair=(1, 4), seed=5))
        assert all(v.n == p.m for v, p in corpus.pairs)

    def test_weak_mode_can_produce_unequal_counts(self):
        spec = SynthSpec(num_pairs=40, clips_per_pair=(2, 3), seed=3, correspondence="weak")
        corpus, labels = synth_generate(spec)
        assert corpus.correspondence == "weak"
        assert any(v.n != p.m for v, p in corpus.pairs)
        for video, paragraph in corpus.pairs:
            video_events = labels.clip_labels[video.id]
            sentence_events = labels.sentence_labels[video.id]
            assert set(sentence_events) == set(video_events)

    def test_labels_cover_every_clip(self):
        spec = SynthSpec(num_pairs=5, num_events=4, seed=9)
        corpus, labels = synth_generate(spec)
        assert len(labels.label_phrases) == 4
        for video, paragraph in corpus.pairs:
            assert len(labels.clip_labels[video.id]) == video.n
            assert len(labels.sentence_labels[video.id]) == paragraph.m

    def test_invalid_spec_rejected(self):
        with pytest.raises(ContractError):
            synth_generate(SynthSpec(num_pairs=0))
        with pytest.raises(ContractError):
            synth_generate(SynthSpec(noise_std=-1.0))
        with pytest.raises(ContractError):
            synth_generate(SynthSpec(clips_per_pair=(3, 2)))


class TestCorpusIO:
    def test_roundtrip(self, tmp_path):
        corpus, _ = synth_generate(SynthSpec(num_pairs=5, clips_per_pair=(1, 3), seed=13))
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    @settings(max_examples=20, deadline=None)
    @given(
        pairs=st.integers(min_value=1, max_value=4),
        clips_hi=st.integers(min_value=1, max_value=3),
        d_v=st.integers(min_value=1, max_value=5),
        d_t=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
        weak=st.booleans(),
    )
    def test_roundtrip_property(self, tmp_path_factory, pairs, clips_hi, d_v, d_t, seed, weak):
        spec = SynthSpec(
            num_pairs=pairs,
            num_events=2,
            clips_per_pair=(1, clips_hi),
            frames_per_clip=(1, 2),
            words_per_sentence=(1, 3),
            d_v=d_v,
            d_t=d_t,
            seed=seed,
            correspondence="weak" if weak else "strong",
        )
        corpus, _ = synth_generate(spec)
        path = tmp_path_factory.mktemp("rt") / "c.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path, correspondence=corpus.correspondence) == corpus

    def test_single_record_shape(self, tmp_path):
        path = tmp_path / "c.jsonl"
        frame = [0.1, 0.2, 0.3, 0.4]
        record = {
            "id": "a",
            "clips": [[frame, frame, frame], [frame, frame, frame]],
            "sentences": [[frame], [frame]],
        }
        import json

        path.write_text(json.dumps(record) + "\n")
        corpus = load_corpus(path)
        video = corpus.pairs[0][0]
        assert video.n == 2
        assert video.n_i == [3, 3]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = '{"id": "a", "clips": [[[1.0]]], "sentences": [[[1.0]]]}'
        path.write_text(good + "\n" + "{not json\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_empty_clip_list_is_validation_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "clips": [], "sentences": [[[1.0]]]}\n')
        with pytest.raises(CorpusError, match="no clips"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "bad",
        [
            '{"id": "b", "clips": [[[1.0], [NaN]]], "sentences": [[[1.0]]]}',
            '{"id": "b", "clips": [[[1.0]]], "sentences": [[[-Infinity]]]}',
        ],
    )
    def test_non_finite_feature_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "c.jsonl"
        good = '{"id": "a", "clips": [[[1.0]]], "sentences": [[[1.0]]]}'
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(CorpusError, match=r"c\.jsonl: line 2: .*non-finite"):
            load_corpus(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = '{"id": "a", "clips": [[[1.0]]], "sentences": [[[1.0]]]}'
        path.write_text(rec + "\n" + rec + "\n")
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(path)

    def test_each_sample_validated_once_per_load(self, tmp_path, monkeypatch):
        corpus, _ = synth_generate(SynthSpec(num_pairs=4, clips_per_pair=(1, 3), seed=14))
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        calls = []

        def counted(check):
            def validate(self):
                calls.append(self.id)
                check(self)

            return validate

        for cls in (VideoSample, ParagraphSample):
            monkeypatch.setattr(cls, "validate", counted(cls.validate))
        assert load_corpus(path) == corpus
        assert sorted(calls) == sorted(2 * [v.id for v, _ in corpus.pairs])

    def test_correspondence_inference(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "a", "clips": [[[1.0]], [[2.0]]], "sentences": [[[1.0]]]}\n'
        )
        assert load_corpus(path).correspondence == "weak"


class TestLabelsIO:
    def test_roundtrip(self, tmp_path):
        _, labels = synth_generate(SynthSpec(num_pairs=3, num_events=2, seed=1))
        path = tmp_path / "labels.json"
        save_labels(labels, path)
        loaded = load_labels(path)
        assert loaded.num_events == labels.num_events
        assert loaded.clip_labels == labels.clip_labels
        assert np.array_equal(loaded.events, labels.events)
        assert all(
            np.array_equal(a, b) for a, b in zip(loaded.label_phrases, labels.label_phrases)
        )


class TestCheckpointIO:
    def _params(self):
        return init_params(ModelDims(d_v=5, d_t=3, hidden_low=4, hidden_high=6), seed=21)

    def test_roundtrip_bit_exact(self, tmp_path):
        params = self._params()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for (name_a, a), (name_b, b) in zip(
            params.named_parameters(), loaded.named_parameters()
        ):
            assert name_a == name_b
            assert a.values.tobytes() == b.values.tobytes()

    def test_truncated_file(self, tmp_path):
        params = self._params()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        params = self._params()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        data = path.read_bytes()
        path.write_bytes(b"NOPE" + data[4:])
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = self._params()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_header_mismatch_rejected(self, tmp_path):
        import struct

        params = self._params()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        # embed_dim field disagrees with hidden_high
        data[4 + 16 : 4 + 20] = struct.pack("<i", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="mismatch"):
            load_checkpoint(path)


class TestCorpusValidation:
    def test_strong_requires_equal_counts(self):
        video = VideoSample("a", [np.ones((1, 2))])
        paragraph = ParagraphSample("a", [np.ones((1, 2)), np.ones((1, 2))])
        corpus = Corpus(pairs=[(video, paragraph)], correspondence="strong")
        with pytest.raises(CorpusError, match="strong"):
            corpus.validate()
        Corpus(pairs=[(video, paragraph)], correspondence="weak").validate()

    def test_inconsistent_dims_rejected(self):
        video = VideoSample("a", [np.ones((1, 2)), np.ones((1, 3))])
        with pytest.raises(CorpusError):
            video.validate()
