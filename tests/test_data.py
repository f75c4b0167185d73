import hashlib
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    write_atomically,
)
from hse.errors import CheckpointError, ContractError, CorpusError, LabelsError
from hse.model import ModelDims
from hse.training import init_params

# one fault in a file's bytes, as (kind, position, bytes): a truncation, an
# overwrite of one byte, or an inserted JSON metacharacter (or a line break,
# which ends a corpus record); the position is taken modulo the places that
# kind can act on
JSON_METACHARACTERS = [b"{", b"}", b"[", b"]", b":", b",", b'"', b"\\", b"\n"]
FAULTS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**16), st.just(b"")),
    st.tuples(st.just("overwrite"), st.integers(0, 2**16), st.binary(min_size=1, max_size=1)),
    st.tuples(st.just("insert"), st.integers(0, 2**16), st.sampled_from(JSON_METACHARACTERS)),
)
# nesting past the JSON decoder's recursion limit
DEEP_NESTING = ("insert", 0, b"[" * 200_000)


def _with_fault(good: bytes, fault) -> bytes:
    kind, at, value = fault
    at %= len(good) + (kind == "insert")
    if kind == "truncate":
        return good[:at]
    return good[:at] + value + good[at + (kind == "overwrite") :]


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
        corpus, _ = synth_generate(SynthSpec(num_pairs=8, clips_per_pair=(2, 4), seed=5))
        assert all(v.n == p.m for v, p in corpus.pairs)

    def test_weak_mode_can_produce_unequal_counts(self):
        spec = SynthSpec(num_pairs=40, clips_per_pair=(3, 4), seed=3, correspondence="weak")
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

    def test_pairs_never_share_an_event_sequence(self):
        spec = SynthSpec(num_pairs=2, num_events=2, clips_per_pair=(1, 1))
        _, labels = synth_generate(spec)
        assert sorted(labels.clip_labels.values()) == [[0], [1]]
        spec.num_pairs = 3
        with pytest.raises(ContractError, match="pair_0002 draws 1 clips, but all 2 event"):
            synth_generate(spec)


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
            num_events=4,
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
        loaded = load_corpus(path)
        assert loaded.pairs == corpus.pairs
        assert loaded.correspondence == spec.correspondence

    @settings(max_examples=200, deadline=None)
    @given(fault=FAULTS)
    @example(fault=DEEP_NESTING)
    def test_damaged_file_loads_or_is_one_corpus_error(self, tmp_path_factory, fault):
        spec = SynthSpec(num_pairs=3, clips_per_pair=(1, 2), frames_per_clip=(1, 2),
                         words_per_sentence=(1, 2), d_v=2, d_t=2, seed=3)
        corpus, _ = synth_generate(spec)
        path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
        save_corpus(corpus, path)
        path.write_bytes(_with_fault(path.read_bytes(), fault))
        try:
            loaded = load_corpus(path)
        except CorpusError:
            return
        loaded.validate()

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

    def test_non_utf8_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = b'{"id": "a", "clips": [[[1.0]]], "sentences": [[[1.0]]]}\n'
        path.write_bytes(good + b'{"id": "b\xff", "clips": [[[1.0]]], "sentences": [[[1.0]]]}\n')
        with pytest.raises(CorpusError, match=r"c\.jsonl: line 2: not UTF-8 text"):
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


def _set_first_label(key, value):
    def edit(doc):
        next(iter(doc[key].values()))[0] = value

    return edit


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

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc.pop("events"), "events"),
            (lambda doc: doc.pop("label_phrases"), "label_phrases"),
            (lambda doc: doc.update(num_events="3"), "num_events"),
            (lambda doc: doc.update(num_events=2.5), "num_events"),
            (lambda doc: doc.update(events=[["a", 1.0]]), "events"),
            (lambda doc: doc.update(clip_labels=[1, 2]), "clip_labels"),
            (lambda doc: doc.update(sentence_labels={"x": 3}), "sentence_labels"),
            (lambda doc: doc.update(label_phrases=[[[1.0], [1.0, 2.0]]]), "label_phrases"),
            (lambda doc: doc.update(label_phrases=doc["label_phrases"][:1]), "label_phrases"),
            (_set_first_label("clip_labels", 2), "clip_labels"),  # 2 events: labels 0 and 1
            (_set_first_label("sentence_labels", -1), "sentence_labels"),
            (lambda doc: doc["label_phrases"][1][0].__setitem__(0, math.nan), "label_phrases"),
            (lambda doc: doc["label_phrases"][0][0].__setitem__(0, math.inf), "label_phrases"),
            (lambda doc: doc["label_phrases"].__setitem__(1, []), "label_phrases"),
            (lambda doc: doc["label_phrases"].__setitem__(0, [[]]), "label_phrases"),
            (lambda doc: doc["label_phrases"].__setitem__(1, [1.0, 2.0]), "label_phrases"),
            (lambda doc: doc["label_phrases"][1][0].append(0.0), "label_phrases"),
        ],
        ids=[
            "missing-events", "missing-phrases", "string-count", "float-count",
            "text-event", "list-clip-labels", "scalar-sentence-labels", "ragged-phrase",
            "too-few-phrases", "label-too-large", "negative-label", "nan-in-phrase",
            "inf-in-phrase", "empty-phrase", "phrase-without-columns", "flat-phrase",
            "phrase-widths-differ",
        ],
    )
    def test_bad_field_names_file_and_field(self, tmp_path, edit, field):
        _, labels = synth_generate(SynthSpec(num_pairs=3, num_events=2, seed=1))
        path = tmp_path / "labels.json"
        save_labels(labels, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(LabelsError, match=f"labels.json: .*'{field}'"):
            load_labels(path)

    @pytest.mark.parametrize(
        "text", ['{"num_events": ', "[1, 2]", "\udcff"], ids=["bad-json", "list", "bad-utf8"]
    )
    def test_not_a_labels_object(self, tmp_path, text):
        path = tmp_path / "labels.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(LabelsError, match="labels.json: "):
            load_labels(path)


    @settings(max_examples=200, deadline=None)
    @given(fault=FAULTS)
    @example(fault=DEEP_NESTING)
    def test_damaged_file_loads_or_is_one_labels_error(self, tmp_path_factory, fault):
        _, labels = synth_generate(SynthSpec(num_pairs=3, num_events=2, d_t=2, seed=1))
        path = tmp_path_factory.mktemp("labels") / "labels.json"
        save_labels(labels, path)
        path.write_bytes(_with_fault(path.read_bytes(), fault))
        try:
            load_labels(path)
        except LabelsError:
            pass


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

    def test_hse1_bytes_are_pinned(self, tmp_path):
        # the digest of this file as written when every GRU gate was its own
        # tensor (commit fd09241): pins the format, the entry order and the
        # order of the init draws
        path = tmp_path / "ckpt.bin"
        dims = ModelDims(d_v=3, d_t=2, hidden_low=4, hidden_high=5)
        save_checkpoint(init_params(dims, seed=7), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "b53c490f1a4b777dda0ee1bb69978c8b7f6456e9781ae01ea4acc1f07b65c34b"

    def corrupted(self, tmp_path, edit):
        """A saved checkpoint of _params, its bytes changed by edit."""
        path = tmp_path / "ckpt.bin"
        save_checkpoint(self._params(), path)
        path.write_bytes(bytes(edit(bytearray(path.read_bytes()))))
        return path

    def raises(self, path, message):
        """Expect one CheckpointError whose text is the path, then message."""
        return pytest.raises(CheckpointError, match=re.escape(f"{path}: ") + message)

    def test_truncated_file(self, tmp_path):
        path = self.corrupted(tmp_path, lambda data: data[: len(data) // 2])
        with self.raises(path, "truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = self.corrupted(tmp_path, lambda data: b"NOPE" + data[4:])
        with self.raises(path, "bad checkpoint magic b'NOPE'"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self.corrupted(tmp_path, lambda data: data + b"\x00")
        with self.raises(path, "trailing"):
            load_checkpoint(path)

    def test_header_mismatch_rejected(self, tmp_path):
        def embed_dim_99(data):  # the embed_dim field disagrees with hidden_high
            data[4 + 16 : 4 + 20] = struct.pack("<i", 99)
            return data

        path = self.corrupted(tmp_path, embed_dim_99)
        with self.raises(path, "dimension header: embed_dim 99 != hidden_high 6"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "offset, value, message",
        [
            (4, 2**31 - 1, re.escape("truncated checkpoint: dimension header [2147483647, ")),
            (4, 0, "dimension header: ModelDims.d_v must be >= 1"),
            (24, 0xFFFFFFF0, "expected parameter 'enc_v_low.w_z', found a name of 4294967280 bytes"),
            (41, 0x3FFFFFFF, "rank mismatch for 'enc_v_low.w_z': 1073741823 != 2"),
        ],
        ids=["d_v", "d_v-zero", "name-length", "rank"],
    )
    def test_header_fields_checked_before_reading_on(self, tmp_path, offset, value, message):
        def overwrite(data):
            data[offset : offset + 4] = struct.pack("<I", value)
            return data

        path = self.corrupted(tmp_path, overwrite)
        tracemalloc.start()
        try:
            with self.raises(path, message):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # no buffer sized by the corrupt field

    def test_non_finite_value_rejected(self, tmp_path):
        params = self._params()
        params.enc_p_high.b.values[7] = -np.inf  # b_r[1] of a hidden size 6
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        with self.raises(path, re.escape("non-finite value -inf in 'enc_p_high.b_r' at [1]")):
            load_checkpoint(path)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_corrupt_file_is_one_checkpoint_error(self, tmp_path_factory, data):
        """Any truncation of a checkpoint, and any overwrite of a field of
        its dimension header or of an entry's name length, rank or dims,
        ends in one CheckpointError naming the file."""
        params = init_params(ModelDims(d_v=2, d_t=3, hidden_low=2, hidden_high=3), seed=1)
        fields = list(range(4, 24, 4))  # d_v, d_t, hidden_low, hidden_high, embed_dim
        at = 24  # an entry's name length, then its name, rank, dims and values
        for name, view in params.checkpoint_views():
            rank_at = at + 4 + len(name.encode("utf-8"))
            fields += [at, rank_at] + [rank_at + 4 * k for k in range(1, view.ndim + 1)]
            at = rank_at + 4 + 4 * view.ndim + 8 * view.size
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.bin"
        save_checkpoint(params, path)
        good = path.read_bytes()
        assert len(good) == at
        if data.draw(st.booleans(), label="truncate"):
            bad = good[: data.draw(st.integers(0, len(good) - 1), label="length")]
        else:
            field = data.draw(st.sampled_from(fields), label="field offset")
            (old,) = struct.unpack_from("<I", good, field)
            value = data.draw(st.integers(0, 2**32 - 1).filter(lambda v: v != old), label="value")
            bad = good[:field] + struct.pack("<I", value) + good[field + 4 :]
        path.write_bytes(bad)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: ")):
            load_checkpoint(path)


class TestAtomicWrites:
    def test_failed_write_leaves_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old contents\n")

        def chunks():
            yield "new "
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            write_atomically(path, chunks())
        assert path.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_saves_leave_old_checkpoint_and_corpus(self, tmp_path, monkeypatch):
        ckpt, corpus_path = tmp_path / "ckpt.bin", tmp_path / "corpus.jsonl"
        params = init_params(ModelDims(d_v=5, d_t=3, hidden_low=4, hidden_high=6), seed=21)
        corpus, _ = synth_generate(SynthSpec(num_pairs=4, d_v=5, d_t=3, seed=1))
        save_checkpoint(params, ckpt)
        save_corpus(corpus, corpus_path)
        old = {p: p.read_bytes() for p in (ckpt, corpus_path)}
        views = params.checkpoint_views()

        def failing_views():
            yield from views[:3]
            raise OSError("disk full")

        monkeypatch.setattr(params, "checkpoint_views", failing_views)
        with pytest.raises(OSError):
            save_checkpoint(params, ckpt)
        dumps = json.dumps
        calls = []

        def failing_dumps(record):
            calls.append(record)
            if len(calls) == 3:
                raise OSError("disk full")
            return dumps(record)

        monkeypatch.setattr(json, "dumps", failing_dumps)
        with pytest.raises(OSError):
            save_corpus(corpus, corpus_path)
        assert {p: p.read_bytes() for p in old} == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin", "corpus.jsonl"]


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
