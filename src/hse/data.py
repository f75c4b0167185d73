"""Hierarchical paired corpus: in-memory model, synthetic generation, file I/O.

Corpus file format (one JSON record per line, UTF-8, LF separated):

    {"id": "pair_0000",
     "clips":     [[[f, f, ...], ...], ...],   # clip -> frame -> feature
     "sentences": [[[f, f, ...], ...], ...]}   # sentence -> word -> feature

Checkpoint file format (binary, little endian):

    magic "HSE1"
    int32 x5: d_v, d_t, hidden_low, hidden_high, embed_dim
    per parameter, in the fixed canonical order of
    HseModelParams.named_parameters():
        uint32 name length, name bytes (UTF-8),
        uint32 rank, uint32 x rank dims,
        float64 x prod(dims) values (row major)

Synthetic corpora are drawn from a latent-event model: every pair shares a
sequence of events sampled from a small event vocabulary; clip frames are a
(possibly identity) video projection of the clip's event plus Gaussian
noise, and sentence words are a text projection of the same event plus
noise. Clip i and sentence i share one event, which gives strong
correspondence by construction and ground-truth labels for zero-shot tests.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, ContractError, CorpusError

__all__ = [
    "VideoSample",
    "ParagraphSample",
    "Corpus",
    "SynthSpec",
    "SynthLabels",
    "synth_generate",
    "save_corpus",
    "load_corpus",
    "save_checkpoint",
    "load_checkpoint",
    "save_labels",
    "load_labels",
]

CHECKPOINT_MAGIC = b"HSE1"


@dataclass
class VideoSample:
    """One video: an ordered list of clips, each a [frames x d_v] array."""

    id: str
    clips: list[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.clips)

    @property
    def n_i(self) -> list[int]:
        return [c.shape[0] for c in self.clips]

    def validate(self) -> None:
        if self.n < 1:
            raise CorpusError(f"video {self.id!r} has no clips")
        dims = {c.shape[1] for c in self.clips if c.ndim == 2}
        if any(c.ndim != 2 or c.shape[0] < 1 for c in self.clips) or len(dims) != 1:
            raise CorpusError(f"video {self.id!r} has empty or inconsistent clips")
        if not np.isfinite(np.concatenate(self.clips)).all():
            raise CorpusError(f"video {self.id!r} has a non-finite frame feature")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VideoSample)
            and self.id == other.id
            and len(self.clips) == len(other.clips)
            and all(np.array_equal(a, b) for a, b in zip(self.clips, other.clips))
        )


@dataclass
class ParagraphSample:
    """One paragraph: an ordered list of sentences, each a [words x d_t] array."""

    id: str
    sentences: list[np.ndarray]

    @property
    def m(self) -> int:
        return len(self.sentences)

    @property
    def word_counts(self) -> list[int]:
        return [s.shape[0] for s in self.sentences]

    def validate(self) -> None:
        if self.m < 1:
            raise CorpusError(f"paragraph {self.id!r} has no sentences")
        dims = {s.shape[1] for s in self.sentences if s.ndim == 2}
        if any(s.ndim != 2 or s.shape[0] < 1 for s in self.sentences) or len(dims) != 1:
            raise CorpusError(f"paragraph {self.id!r} has empty or inconsistent sentences")
        if not np.isfinite(np.concatenate(self.sentences)).all():
            raise CorpusError(f"paragraph {self.id!r} has a non-finite word feature")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParagraphSample)
            and self.id == other.id
            and len(self.sentences) == len(other.sentences)
            and all(np.array_equal(a, b) for a, b in zip(self.sentences, other.sentences))
        )


@dataclass
class Corpus:
    """Paired videos and paragraphs.

    Under strong correspondence every pair has equally many clips and
    sentences and index i aligns clip i with sentence i. Under weak
    correspondence only the pair-level alignment is trusted.
    """

    pairs: list[tuple[VideoSample, ParagraphSample]]
    correspondence: str = "strong"

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def d_v(self) -> int:
        return self.pairs[0][0].clips[0].shape[1]

    @property
    def d_t(self) -> int:
        return self.pairs[0][1].sentences[0].shape[1]

    def validate(self) -> None:
        for video, paragraph in self.pairs:
            video.validate()
            paragraph.validate()
        self._validate_pairs()

    def _validate_pairs(self) -> None:
        """The corpus-level checks, over samples that are valid on their own:
        correspondence mode, ids, strong counts and feature dimensions."""
        if self.correspondence not in ("strong", "weak"):
            raise CorpusError(f"unknown correspondence mode {self.correspondence!r}")
        if not self.pairs:
            raise CorpusError("corpus has no pairs")
        seen = set()
        for video, paragraph in self.pairs:
            if video.id in seen:
                raise CorpusError(f"duplicate pair id {video.id!r}")
            seen.add(video.id)
            if self.correspondence == "strong" and video.n != paragraph.m:
                raise CorpusError(
                    f"pair {video.id!r}: strong correspondence requires equal clip and "
                    f"sentence counts, got {video.n} vs {paragraph.m}"
                )
        if len({v.clips[0].shape[1] for v, _ in self.pairs}) != 1:
            raise CorpusError("inconsistent frame feature dimension across pairs")
        if len({p.sentences[0].shape[1] for _, p in self.pairs}) != 1:
            raise CorpusError("inconsistent word feature dimension across pairs")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Corpus)
            and self.correspondence == other.correspondence
            and self.pairs == other.pairs
        )


@dataclass
class SynthSpec:
    """Parameters of the latent-event synthetic generator."""

    num_pairs: int = 32
    num_events: int = 4
    clips_per_pair: tuple[int, int] = (3, 3)
    frames_per_clip: tuple[int, int] = (4, 4)
    words_per_sentence: tuple[int, int] = (4, 4)
    d_v: int = 16
    d_t: int = 16
    noise_std: float = 0.1
    seed: int = 0
    correspondence: str = "strong"

    def validate(self) -> None:
        for name in ("num_pairs", "num_events"):
            if getattr(self, name) < 1:
                raise ContractError(f"SynthSpec.{name} must be >= 1")
        for name in ("clips_per_pair", "frames_per_clip", "words_per_sentence"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ContractError(f"SynthSpec.{name} must be a range with 1 <= lo <= hi")
        if self.d_v < 1 or self.d_t < 1:
            raise ContractError("SynthSpec feature dimensions must be >= 1")
        if self.noise_std < 0:
            raise ContractError("SynthSpec.noise_std must be >= 0")
        if self.correspondence not in ("strong", "weak"):
            raise ContractError(f"unknown correspondence mode {self.correspondence!r}")


@dataclass
class SynthLabels:
    """Ground truth emitted alongside a synthetic corpus."""

    num_events: int
    events: np.ndarray  # [num_events, event_dim] latent vectors
    clip_labels: dict[str, list[int]] = field(default_factory=dict)
    sentence_labels: dict[str, list[int]] = field(default_factory=dict)
    # one single-word "phrase" per event, in the text feature space
    label_phrases: list[np.ndarray] = field(default_factory=list)


def _projection(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    # identity whenever it fits, so that zero noise makes the two modalities
    # agree exactly; otherwise a fixed random linear map
    if out_dim == in_dim:
        return np.eye(in_dim)
    return rng.normal(0.0, 1.0 / np.sqrt(in_dim), size=(out_dim, in_dim))


def synth_generate(spec: SynthSpec) -> tuple[Corpus, SynthLabels]:
    """Generate a corpus plus ground-truth event labels, deterministically in
    spec.seed.

    Pairs receive distinct event sequences whenever the event vocabulary
    allows it (resampling on collision), so retrieval targets are unique.
    Weak mode shuffles each pair's sentence order and occasionally repeats
    one event as an extra sentence, producing pairs with more sentences
    than clips.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    event_dim = min(spec.d_v, spec.d_t)
    events = rng.normal(0.0, 1.0, size=(spec.num_events, event_dim))
    proj_v = _projection(rng, spec.d_v, event_dim)
    proj_t = _projection(rng, spec.d_t, event_dim)

    labels = SynthLabels(num_events=spec.num_events, events=events)
    labels.label_phrases = [(proj_t @ events[j]).reshape(1, spec.d_t) for j in range(spec.num_events)]

    seen_sequences: set[tuple[int, ...]] = set()
    pairs: list[tuple[VideoSample, ParagraphSample]] = []
    for k in range(spec.num_pairs):
        n = int(rng.integers(spec.clips_per_pair[0], spec.clips_per_pair[1] + 1))
        for _ in range(64):
            clip_events = tuple(int(e) for e in rng.integers(0, spec.num_events, size=n))
            if clip_events not in seen_sequences:
                break
        seen_sequences.add(clip_events)

        pid = f"pair_{k:04d}"
        clips = []
        for ev in clip_events:
            frames = int(rng.integers(spec.frames_per_clip[0], spec.frames_per_clip[1] + 1))
            base = proj_v @ events[ev]
            clips.append(base + rng.normal(0.0, spec.noise_std, size=(frames, spec.d_v)))

        sentence_events = list(clip_events)
        if spec.correspondence == "weak":
            order = rng.permutation(len(sentence_events))
            sentence_events = [sentence_events[i] for i in order]
            if rng.random() < 0.25:
                sentence_events.append(sentence_events[int(rng.integers(0, len(sentence_events)))])
        sentences = []
        for ev in sentence_events:
            words = int(rng.integers(spec.words_per_sentence[0], spec.words_per_sentence[1] + 1))
            base = proj_t @ events[ev]
            sentences.append(base + rng.normal(0.0, spec.noise_std, size=(words, spec.d_t)))

        pairs.append((VideoSample(pid, clips), ParagraphSample(pid, sentences)))
        labels.clip_labels[pid] = list(clip_events)
        labels.sentence_labels[pid] = list(sentence_events)

    corpus = Corpus(pairs=pairs, correspondence=spec.correspondence)
    corpus.validate()
    return corpus, labels


# ---------------------------------------------------------------------------
# corpus file I/O


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for video, paragraph in corpus.pairs:
            record = {
                "id": video.id,
                "clips": [c.tolist() for c in video.clips],
                "sentences": [s.tolist() for s in paragraph.sentences],
            }
            fh.write(json.dumps(record) + "\n")


def load_corpus(path, correspondence: str | None = None) -> Corpus:
    """Parse a line-delimited corpus file and validate it.

    When correspondence is not given it is inferred: strong if every pair
    has matching clip and sentence counts, weak otherwise.
    """
    pairs: list[tuple[VideoSample, ParagraphSample]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {lineno}: malformed record: {exc}") from None
            try:
                pid = record["id"]
                clips = [np.asarray(c, dtype=np.float64) for c in record["clips"]]
                sentences = [np.asarray(s, dtype=np.float64) for s in record["sentences"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusError(f"{path}: line {lineno}: malformed record: {exc}") from None
            video = VideoSample(str(pid), clips)
            paragraph = ParagraphSample(str(pid), sentences)
            try:
                video.validate()
                paragraph.validate()
            except CorpusError as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}") from None
            pairs.append((video, paragraph))
    if not pairs:
        raise CorpusError(f"{path}: corpus file has no records")
    if correspondence is None:
        strong = all(v.n == p.m for v, p in pairs)
        correspondence = "strong" if strong else "weak"
    corpus = Corpus(pairs=pairs, correspondence=correspondence)
    corpus._validate_pairs()  # every sample was validated with its line
    return corpus


# ---------------------------------------------------------------------------
# zero-shot label sidecar


def save_labels(labels: SynthLabels, path) -> None:
    doc = {
        "num_events": labels.num_events,
        "events": labels.events.tolist(),
        "clip_labels": labels.clip_labels,
        "sentence_labels": labels.sentence_labels,
        "label_phrases": [p.tolist() for p in labels.label_phrases],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_labels(path) -> SynthLabels:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return SynthLabels(
        num_events=int(doc["num_events"]),
        events=np.asarray(doc["events"], dtype=np.float64),
        clip_labels={k: [int(x) for x in v] for k, v in doc["clip_labels"].items()},
        sentence_labels={k: [int(x) for x in v] for k, v in doc["sentence_labels"].items()},
        label_phrases=[np.asarray(p, dtype=np.float64) for p in doc["label_phrases"]],
    )


# ---------------------------------------------------------------------------
# checkpoint I/O


def save_checkpoint(params, path) -> None:
    """Serialize model weights; the round trip is bit exact."""
    dims = params.dims
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(
            struct.pack(
                "<5i", dims.d_v, dims.d_t, dims.hidden_low, dims.hidden_high, dims.embed_dim
            )
        )
        for name, tensor in params.named_parameters():
            raw = name.encode("utf-8")
            arr = tensor.values
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8", copy=False).tobytes())


def _read_exact(fh, count: int, what: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path):
    """Rebuild HseModelParams from a checkpoint written by save_checkpoint."""
    from .model import ModelDims, build_params  # local import avoids a cycle

    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}")
        d_v, d_t, hidden_low, hidden_high, embed_dim = struct.unpack(
            "<5i", _read_exact(fh, 20, "dimension header")
        )
        dims = ModelDims(d_v=d_v, d_t=d_t, hidden_low=hidden_low, hidden_high=hidden_high)
        if embed_dim != dims.embed_dim:
            raise CheckpointError(
                f"dimension header mismatch: embed_dim {embed_dim} != hidden_high {hidden_high}"
            )
        params = build_params(dims)
        for name, tensor in params.named_parameters():
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            got_name = _read_exact(fh, name_len, "name").decode("utf-8")
            if got_name != name:
                raise CheckpointError(f"expected parameter {name!r}, found {got_name!r}")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
            shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims"))
            if tuple(shape) != tensor.values.shape:
                raise CheckpointError(
                    f"dimension header mismatch for {name!r}: "
                    f"{list(shape)} != {list(tensor.values.shape)}"
                )
            count = int(np.prod(shape, dtype=np.int64)) if rank else 1
            raw = _read_exact(fh, 8 * count, f"values of {name!r}")
            tensor.values = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        trailing = fh.read(1)
        if trailing:
            raise CheckpointError("trailing bytes after final parameter")
    params.validate()
    return params
