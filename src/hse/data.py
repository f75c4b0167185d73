"""Hierarchical paired corpus: in-memory model, synthetic generation, file I/O.

Corpus file format (one JSON record per line, UTF-8, LF separated):

    {"id": "pair_0000",
     "clips":     [[[f, f, ...], ...], ...],   # clip -> frame -> feature
     "sentences": [[[f, f, ...], ...], ...]}   # sentence -> word -> feature

Checkpoint file format (binary, little endian):

    magic "HSE1"
    int32 x5: d_v, d_t, hidden_low, hidden_high, embed_dim
    per entry, in the fixed order of HseModelParams.checkpoint_views():
        uint32 name length, name bytes (UTF-8),
        uint32 rank, uint32 x rank dims,
        float64 x prod(dims) values (row major)

The entries are per gate (enc_v_low.w_z [H, D], enc_v_low.u_z [H, H],
enc_v_low.b_z [H], ...): views of the weight blocks the model trains, so
the bytes are those of a model that stores every gate as its own tensor.

Synthetic corpora are drawn from a latent-event model: every pair shares a
sequence of events sampled from a small event vocabulary; clip frames are a
(possibly identity) video projection of the clip's event plus Gaussian
noise, and sentence words are a text projection of the same event plus
noise. Clip i and sentence i share one event, which gives strong
correspondence by construction and ground-truth labels for zero-shot tests.

Every file is written through write_atomically: a save that fails partway
leaves the previous file in place.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import CheckpointError, ContractError, CorpusError, HseError, LabelsError

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
    "write_atomically",
]

CHECKPOINT_MAGIC = b"HSE1"
CORRESPONDENCES = ("strong", "weak")  # the correspondence modes of a corpus


def _validate_units(sample: str, units: list[np.ndarray], unit_name: str, feature: str) -> None:
    """Check that a sample has at least one unit (clip, sentence), that every
    unit is a nonempty [steps, D] array of one width D >= 1, and that every
    feature is finite."""
    if not units:
        raise CorpusError(f"{sample} has no {unit_name}")
    dims = {u.shape[1] for u in units if u.ndim == 2}
    if any(u.ndim != 2 or u.shape[0] < 1 for u in units) or len(dims) != 1 or dims == {0}:
        raise CorpusError(f"{sample} has empty or inconsistent {unit_name}")
    if not np.isfinite(np.concatenate(units)).all():
        raise CorpusError(f"{sample} has a non-finite {feature} feature")


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
        _validate_units(f"video {self.id!r}", self.clips, "clips", "frame")

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

    def validate(self) -> None:
        _validate_units(f"paragraph {self.id!r}", self.sentences, "sentences", "word")

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
        if self.correspondence not in CORRESPONDENCES:
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
            widths = (video.clips[0].shape[1], paragraph.sentences[0].shape[1])
            for unit, d, want in zip(("frame", "word"), widths, (self.d_v, self.d_t)):
                if d != want:
                    raise CorpusError(
                        f"pair {video.id!r}: inconsistent {unit} feature dimension: "
                        f"{d}, but the first pair has {want}"
                    )

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
        if not 0 <= self.noise_std < np.inf:  # NaN fails this too
            raise ContractError("SynthSpec.noise_std must be finite and >= 0")
        if self.seed < 0:
            raise ContractError("SynthSpec.seed must be >= 0")
        if self.correspondence not in CORRESPONDENCES:
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

    Pairs receive distinct event sequences (resampling on collision), so
    retrieval targets are unique; a pair whose drawn clip count n has no
    unused sequence left (all num_events ** n are taken) is a ContractError.
    Weak mode shuffles each pair's sentence order and occasionally repeats
    one event as an extra sentence, producing pairs with more sentences
    than clips. If no earlier pair drew one, the last pair gets one, so a
    weak corpus always has a pair whose counts differ and loads as weak.
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
        pid = f"pair_{k:04d}"
        n = int(rng.integers(spec.clips_per_pair[0], spec.clips_per_pair[1] + 1))
        if sum(len(seq) == n for seq in seen_sequences) == spec.num_events**n:
            raise ContractError(
                f"SynthSpec: {pid} draws {n} clips, but all {spec.num_events**n} event "
                f"sequences of length {n} are taken by earlier pairs"
            )
        clip_events = None
        while clip_events is None or clip_events in seen_sequences:
            clip_events = tuple(int(e) for e in rng.integers(0, spec.num_events, size=n))
        seen_sequences.add(clip_events)

        clips = []
        for ev in clip_events:
            frames = int(rng.integers(spec.frames_per_clip[0], spec.frames_per_clip[1] + 1))
            base = proj_v @ events[ev]
            clips.append(base + rng.normal(0.0, spec.noise_std, size=(frames, spec.d_v)))

        sentence_events = list(clip_events)
        if spec.correspondence == "weak":
            order = rng.permutation(len(sentence_events))
            sentence_events = [sentence_events[i] for i in order]
            if rng.random() < 0.25 or (k == spec.num_pairs - 1 and all(v.n == p.m for v, p in pairs)):
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
# file I/O


def write_atomically(path, chunks: Iterable, binary: bool = False) -> None:
    """Write the str chunks (bytes, with binary) to path. They go to a temp
    file in the same directory, which replaces path once the last chunk is
    written; if writing fails, path is left as it was and the temp file is
    removed."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_corpus(corpus: Corpus, path) -> None:
    records = (
        {
            "id": video.id,
            "clips": [c.tolist() for c in video.clips],
            "sentences": [s.tolist() for s in paragraph.sentences],
        }
        for video, paragraph in corpus.pairs
    )
    write_atomically(path, (json.dumps(record) + "\n" for record in records))


def read_lines(path, error: type[HseError]) -> Iterator[tuple[int, str]]:
    """The numbered lines of a text file; one not UTF-8 raises error."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError:
                raise error(f"{path}: line {lineno}: not UTF-8 text") from None


def load_corpus(path) -> Corpus:
    """Parse a line-delimited corpus file and validate it.

    The file does not store the correspondence mode; it is inferred:
    strong if every pair has matching clip and sentence counts, weak
    otherwise.
    """
    pairs: list[tuple[VideoSample, ParagraphSample]] = []
    for lineno, line in read_lines(path, CorpusError):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
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
    strong = all(v.n == p.m for v, p in pairs)
    corpus = Corpus(pairs=pairs, correspondence="strong" if strong else "weak")
    try:
        corpus._validate_pairs()  # every sample was validated with its line
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None
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
    write_atomically(path, [json.dumps(doc)])


def _label_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _label_map(doc) -> dict[str, list[int]]:
    return {k: [_label_int(x) for x in v] for k, v in doc.items()}


_LABEL_FIELDS = {
    "num_events": _label_int,
    "events": lambda doc: np.asarray(doc, dtype=np.float64),
    "clip_labels": _label_map,
    "sentence_labels": _label_map,
    "label_phrases": lambda doc: [np.asarray(p, dtype=np.float64) for p in doc],
}


def load_labels(path) -> SynthLabels:
    """Read a labels sidecar. Bad JSON, a missing field, a field of the wrong
    type, a label outside [0, num_events), a phrase count other than
    num_events or a phrase that is not a nonempty, finite [words, D] array
    of phrase 0's D raises LabelsError naming the file and the field."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or nested too deep
            raise LabelsError(f"{path}: not a JSON labels file: {exc}") from None
    if not isinstance(doc, dict):
        raise LabelsError(f"{path}: labels file must hold a JSON object")
    fields = {}
    for key, convert in _LABEL_FIELDS.items():
        if key not in doc:
            raise LabelsError(f"{path}: missing field {key!r}")
        try:
            fields[key] = convert(doc[key])
        except (TypeError, ValueError, AttributeError) as exc:
            raise LabelsError(f"{path}: bad field {key!r}: {exc}") from None
    n = fields["num_events"]
    phrases = fields["label_phrases"]
    if len(phrases) != n:
        raise LabelsError(f"{path}: field 'label_phrases' needs one phrase per event ({n})")
    for i, phrase in enumerate(phrases):
        if (
            phrase.ndim != 2 or not phrase.size or phrase.shape[1] != phrases[0].shape[1]
            or not np.isfinite(phrase).all()
        ):
            raise LabelsError(
                f"{path}: field 'label_phrases': phrase {i} is not a nonempty, finite "
                f"[words, D] array as wide as phrase 0"
            )
    for key in ("clip_labels", "sentence_labels"):
        for sample_id, labels in fields[key].items():
            if not all(0 <= x < n for x in labels):
                raise LabelsError(
                    f"{path}: field {key!r}: {sample_id!r} has a label outside [0, {n})"
                )
    return SynthLabels(**fields)


# ---------------------------------------------------------------------------
# checkpoint I/O


def save_checkpoint(params, path) -> None:
    """Serialize model weights; the round trip is bit exact."""
    write_atomically(path, _checkpoint_chunks(params), binary=True)


def _checkpoint_chunks(params) -> Iterator[bytes]:
    dims = params.dims
    yield CHECKPOINT_MAGIC
    yield struct.pack("<5i", dims.d_v, dims.d_t, dims.hidden_low, dims.hidden_high, dims.embed_dim)
    for name, arr in params.checkpoint_views():
        raw = name.encode("utf-8")
        yield struct.pack("<I", len(raw)) + raw
        yield struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
        yield arr.astype("<f8", copy=False).tobytes()


def load_checkpoint(path):
    """Rebuild HseModelParams from a checkpoint written by save_checkpoint.
    Each field is checked before the loader reads on, and every weight must
    be finite; any fault is one CheckpointError naming the file."""
    from .model import ModelDims, build_params  # local import avoids a cycle

    def error(message: str) -> CheckpointError:
        return CheckpointError(f"{path}: {message}")

    with open(path, "rb") as fh:
        def read(count: int, what: str) -> bytes:
            buf = fh.read(count)
            if len(buf) != count:
                raise error(f"truncated checkpoint while reading {what}")
            return buf

        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise error(f"bad checkpoint magic {magic!r}")
        header = struct.unpack("<5i", read(20, "dimension header"))
        dims = ModelDims(*header[:4])
        if header[4] != dims.embed_dim:
            raise error(f"dimension header: embed_dim {header[4]} != hidden_high {header[3]}")
        try:
            count = sum(math.prod(shape) for shape in dims.param_shapes())
        except ContractError as exc:
            raise error(f"dimension header: {exc}") from None
        if 8 * count > os.fstat(fh.fileno()).st_size:  # a buffer the file cannot fill
            raise error(f"truncated checkpoint: dimension header {list(header)} needs {count} values")
        params = build_params(dims)
        for name, view in params.checkpoint_views():
            (name_len,) = struct.unpack("<I", read(4, "name length"))
            if name_len != len(name):  # names are ASCII
                raise error(f"expected parameter {name!r}, found a name of {name_len} bytes")
            got = read(name_len, "name")
            if got != name.encode("ascii"):
                raise error(f"expected parameter {name!r}, found {got!r}")
            (rank,) = struct.unpack("<I", read(4, "rank"))
            if rank != view.ndim:
                raise error(f"rank mismatch for {name!r}: {rank} != {view.ndim}")
            shape = struct.unpack(f"<{rank}I", read(4 * rank, "dims"))
            if shape != view.shape:
                raise error(f"dims mismatch for {name!r}: {list(shape)} != {list(view.shape)}")
            values = np.frombuffer(read(8 * view.size, f"values of {name!r}"), dtype="<f8")
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                at = [int(i) for i in np.unravel_index(bad[0], shape)]
                raise error(f"non-finite value {values[bad[0]]} in {name!r} at {at}")
            view[...] = values.reshape(shape)
        if fh.read(1):
            raise error("trailing bytes after final parameter")
    return params
