"""Seeded generator of weakly labeled synthetic corpora with exact ground truth.

Features are class prototypes plus noise: each modality has one unit-norm
prototype per class, a segment's token is the sum of the prototypes active in
that modality, and a `leak` fraction of the prototype bleeds into the other
modality for unaligned events. Per-video RNG streams make generation
order-independent and reproducible.
"""
from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from typing import Annotated

import numpy as np

from .errors import ConfigError, DimensionError, FileFormatError
from .fileio import json_lines, parse_record, read_records, stack_payloads, write_json_lines
from .records import SCORE_BLOCK_VIDEOS, BinaryParse, VideoSample, check_fields, record_eq, unchecked


@dataclass(eq=False)
class CorpusSpec:
    # the size caps keep a corpus's arrays allocatable, so a huge size is a ConfigError
    n_videos: Annotated[int, "in [0,1000000]"] = 500
    segments: Annotated[int, "in [1,1000]"] = 10  # T
    classes: Annotated[int, "in [1,1000]"] = 5  # C
    dim: Annotated[int, "in [1,8192]"] = 16  # D
    event_rate: Annotated[float, ">= 0"] = 2.5  # expected events per video, at most C
    p_audio_only: Annotated[float, "in [0,1]"] = 0.3  # the event-type mix, summing to 1
    p_visual_only: Annotated[float, "in [0,1]"] = 0.3
    p_audible_visible: Annotated[float, "in [0,1]"] = 0.4
    leak: Annotated[float, "in [0,1]"] = 0.0  # cross-modal feature leakage for unaligned events
    noise_sigma: Annotated[float, ">= 0"] = 0.1  # per-coordinate gaussian noise
    cooccur: np.ndarray | None = None  # C x C symmetric boosts, zero diagonal
    seed: Annotated[int, ">= 0"] = 0

    def validate(self):
        """Check each field against its annotation (`records.check_fields`), then the rules
        across fields: the event-type mix sums to 1, `event_rate` <= `classes`, and `cooccur`
        is None or a symmetric C x C matrix of finite boosts >= 0 with a zero diagonal."""
        check_fields(self)
        mix = self.p_audio_only + self.p_visual_only + self.p_audible_visible
        if not abs(mix - 1.0) <= 1e-9:
            raise ConfigError(f"event-type mix must sum to 1, got {mix}")
        if not self.event_rate <= self.classes:
            raise ConfigError(f"event_rate must be <= classes ({self.classes}), got {self.event_rate}")
        if self.cooccur is not None:
            m = np.asarray(self.cooccur, dtype=np.float64)
            if m.shape != (self.classes, self.classes):
                raise ConfigError(f"cooccur must be {self.classes}x{self.classes}, got {m.shape}")
            if not np.allclose(m, m.T):
                raise ConfigError("cooccur must be symmetric")
            if np.any(np.diag(m) != 0):
                raise ConfigError("cooccur must have a zero diagonal")
            if not (np.isfinite(m).all() and np.all(m >= 0)):
                raise ConfigError("cooccur boosts must be finite and non-negative")

    def to_mapping(self):
        return asdict(self)

    @classmethod
    def from_mapping(cls, mapping):
        data = dict(mapping)
        if data.get("cooccur") is not None:
            data["cooccur"] = np.asarray(data["cooccur"], dtype=np.float64)
        return cls(**data)

    __eq__ = record_eq


@dataclass(eq=False)
class GeneratedCorpus:
    samples: list
    prototypes_audio: np.ndarray | None  # C x D
    prototypes_visual: np.ndarray | None
    spec: CorpusSpec | None
    # a file header's class names; None stands for class_00, class_01, ...
    class_names: list | None = None
    # (T, C, D) of a corpus with neither spec nor samples, as its file header gives them
    shape: tuple | None = None

    @property
    def n_videos(self):
        return len(self.samples)

    __eq__ = record_eq


def corpus_shape(corpus):
    """The (T, C, D) of the spec, else of the first video, else `corpus.shape`, or None.

    Both branches run on stacked blocks of videos, so a video of another
    T x D or C is a `ConfigError` naming the first such video.
    """
    spec, samples = corpus.spec, corpus.samples
    if spec is not None:
        t, c, d = spec.segments, spec.classes, spec.dim
    elif samples:
        t, c, d = samples[0].n_segments, samples[0].n_classes, samples[0].dim
    else:
        return corpus.shape
    for s in samples:
        if s.audio_tokens.shape != (t, d) or s.n_classes != c:
            raise ConfigError(
                f"video {s.id} has T x D {s.audio_tokens.shape} and C {s.n_classes}, "
                f"the corpus says T={t}, D={d}, C={c}"
            )
    return t, c, d


def weak_labels_from_temporal(gt):
    """Video-level label: class present in any segment of either modality. The rule
    reduces the segment axis, so a parse of `lead` x T x C stacks gives `lead` x C labels."""
    return (gt.audio.any(axis=-2) | gt.visual.any(axis=-2)).astype(np.int64)


def _unit_rows(matrix):
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def _cdf(weights):
    """The cumulative distribution that `Generator.choice(len(weights), p=weights / weights.sum())`
    searches, built the way `choice` builds it."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng, cdf):
    """The index `Generator.choice` would draw from `cdf`: the same one `rng.random()` from
    the stream, searched the same way, without `choice`'s per-call checks of `p`."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _sample_classes(rng, n_classes, n_events, cooccur, uniform):
    """`n_events` distinct classes, drawn one at a time; `uniform(n)` is the cdf of an even
    draw among `n` classes left."""
    chosen = []
    remaining = list(range(n_classes))
    for _ in range(n_events):
        if cooccur is None or not chosen:
            cdf = uniform(len(remaining))
        else:
            cdf = _cdf(np.array([1.0 + sum(cooccur[j, k] for k in chosen) for j in remaining]))
        chosen.append(remaining.pop(_draw(rng, cdf)))
    return chosen


AUDIO_ONLY, VISUAL_ONLY, AUDIBLE_VISIBLE = 0, 1, 2


def generate_corpus(spec):
    """Sample a corpus of weakly labeled videos with known segment ground truth.

    Each video draws a Poisson number of events (capped at one per class);
    classes are drawn sequentially with co-occurrence boosts from the classes
    already placed; each event gets a type from the configured mix and a
    uniform temporal extent. Video i uses its own RNG stream derived from
    (seed, i), so results do not depend on generation order. The videos are
    assembled `SCORE_BLOCK_VIDEOS` at a time: each block's tokens are formed
    over its stacked parses and built by `VideoSample.from_block`.
    """
    spec.validate()
    t, c, d = spec.segments, spec.classes, spec.dim
    proto_rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0)))
    protos_a = _unit_rows(proto_rng.normal(size=(c, d)))
    protos_v = _unit_rows(proto_rng.normal(size=(c, d)))
    kinds = _cdf(np.array([spec.p_audio_only, spec.p_visual_only, spec.p_audible_visible]))
    uniform = functools.cache(lambda n: _cdf(np.ones(n)))
    samples = []
    for lo in range(0, spec.n_videos, SCORE_BLOCK_VIDEOS):
        block = range(lo, min(lo + SCORE_BLOCK_VIDEOS, spec.n_videos))
        gt_a = np.zeros((len(block), t, c), dtype=np.int64)
        gt_v = np.zeros((len(block), t, c), dtype=np.int64)
        noise = np.empty((len(block), 2, t, d))  # each video's audio, then visual noise
        for row, i in enumerate(block):
            rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 1 + i)))
            n_events = min(int(rng.poisson(spec.event_rate)), c)
            for cls in _sample_classes(rng, c, n_events, spec.cooccur, uniform):
                kind = _draw(rng, kinds)
                length = int(rng.integers(1, t + 1))
                start = int(rng.integers(0, t - length + 1))
                if kind in (AUDIO_ONLY, AUDIBLE_VISIBLE):
                    gt_a[row, start : start + length, cls] = 1
                if kind in (VISUAL_ONLY, AUDIBLE_VISIBLE):
                    gt_v[row, start : start + length, cls] = 1
            noise[row] = rng.normal(size=(2, t, d))
        audio = gt_a @ protos_a + spec.leak * ((gt_v * (1 - gt_a)) @ protos_a)
        visual = gt_v @ protos_v + spec.leak * ((gt_a * (1 - gt_v)) @ protos_v)
        audio = audio + spec.noise_sigma * noise[:, 0]
        visual = visual + spec.noise_sigma * noise[:, 1]
        weak = weak_labels_from_temporal(unchecked(BinaryParse, audio=gt_a, visual=gt_v))
        ids = [f"vid{i:05d}" for i in block]
        samples += VideoSample.from_block(ids, audio, visual, weak, gt_a, gt_v)
    return GeneratedCorpus(
        samples=samples,
        prototypes_audio=protos_a,
        prototypes_visual=protos_v,
        spec=spec,
    )


def save_corpus(corpus, path):
    """Write a corpus as JSON Lines: one header object, then one object per video, its
    0/1 fields as one-byte `|u1` payloads.

    Every video must have the corpus's T x D and C, and `class_names`, if
    given, must be C strings, else this is a `ConfigError` and no file is written.
    """
    shape = corpus_shape(corpus)
    if shape is None:
        raise ConfigError("an empty corpus without a spec has no T, C and D to write")
    t, c, d = shape
    names = _default_class_names(c) if corpus.class_names is None else corpus.class_names
    if not _class_names_ok(names, c):
        raise ConfigError(f"class_names must be a list of strings, C={c} of them, got {names!r}")
    header = {
        "n_videos": corpus.n_videos,
        "T": t,
        "C": c,
        "D": d,
        "class_names": names,
        "prototypes_audio": corpus.prototypes_audio,
        "prototypes_visual": corpus.prototypes_visual,
        "spec": None if corpus.spec is None else corpus.spec.to_mapping(),
    }
    records = [
        {
            "id": s.id,
            "audio": s.audio_tokens,
            "visual": s.visual_tokens,
            # 0 and 1 only, as `as_binary` has checked, so one byte a cell
            "weak_label": s.weak_label.astype(np.uint8),
            "gt_audio": None if s.gt is None else s.gt.audio.astype(np.uint8),
            "gt_visual": None if s.gt is None else s.gt.visual.astype(np.uint8),
        }
        for s in corpus.samples
    ]
    write_json_lines(path, [header, *records])


_VIDEO_KEYS = ("id", "audio", "visual", "weak_label")
# the record fields whose payloads a block decodes together
_PAYLOAD_FIELDS = ("audio", "visual", "weak_label", "gt_audio", "gt_visual")


def load_corpus(path):
    """Read a corpus file written by `save_corpus`; round-trips bit-exactly.

    The video records are read by `fileio.read_records`: a block of them at a
    time is built by `VideoSample.from_block`, so each rule runs once over the
    block's stacked fields and each video's arrays are views into them. A
    faulty record, a number too large for a float included, is a
    `FileFormatError` at its line, and the earliest faulty line of the file is
    the one named.
    """
    lines = json_lines(path)
    header_line, raw = next(lines, (1, None))
    if raw is None:
        raise FileFormatError(f"{path}:1: empty file, expected a header object")
    header = parse_record(raw, ("n_videos", "T", "C", "D", "class_names"), path, header_line)
    t, c, d = header["T"], header["C"], header["D"]
    if any(type(n) is not int or n < 1 for n in (t, c, d)):
        raise FileFormatError(f"{path}:{header_line}: T, C and D must be positive integers")
    if type(header["n_videos"]) is not int or header["n_videos"] < 0:
        raise FileFormatError(f"{path}:{header_line}: n_videos must be a non-negative integer")
    samples, line_no = read_records(
        path, lines, _VIDEO_KEYS, _PAYLOAD_FIELDS, lambda recs: _block_samples(recs, (t, c, d))
    )
    if len(samples) != header["n_videos"]:
        raise FileFormatError(
            f"{path}:{line_no or header_line}: header promises {header['n_videos']} videos, "
            f"found {len(samples)}"
        )
    where = f"{path}:{header_line}"
    spec = _header_spec(header, t, c, d, where)
    names = header["class_names"]
    if not _class_names_ok(names, c):
        raise FileFormatError(f"{where}: class_names must be a list of strings, C={c} of them")
    return GeneratedCorpus(
        samples=samples,
        prototypes_audio=_header_prototypes(header, "prototypes_audio", c, d, where),
        prototypes_visual=_header_prototypes(header, "prototypes_visual", c, d, where),
        spec=spec,
        class_names=None if names == _default_class_names(c) else names,
        shape=(t, c, d) if spec is None and not samples else None,
    )


def _block_samples(recs, shape):
    """The videos of the records `recs`, of the header's (T, C, D), built at once by
    `VideoSample.from_block`; records that do not stack (another shape, ground truth on
    some only) raise `ValueError` or `TypeError`, and so does a record that gives one
    parse of its ground truth without the other, naming the missing key."""
    has_gt = [_has_gt(rec) for rec in recs]
    if any(has_gt) and not all(has_gt):
        raise ValueError("ground truth on some videos only")
    gt_keys = ("gt_audio", "gt_visual") if has_gt[0] else ()
    for key in gt_keys:
        if any(rec.get(key) is None for rec in recs):
            raise ValueError(f"missing key {key}")
    samples = VideoSample.from_block(
        [rec["id"] for rec in recs],
        stack_payloads([rec["audio"] for rec in recs]),
        stack_payloads([rec["visual"] for rec in recs]),
        stack_payloads([rec["weak_label"] for rec in recs]),
        *(stack_payloads([rec[key] for rec in recs]) for key in gt_keys),
    )
    t, c, d = shape
    first = samples[0]  # the stacks share one shape
    if first.audio_tokens.shape != (t, d) or first.n_classes != c:
        raise DimensionError(
            f"video {first.id} has T x D {first.audio_tokens.shape} "
            f"and C {first.n_classes}, header says T={t}, D={d}, C={c}"
        )
    return samples


def _has_gt(rec):
    """Whether a record gives ground truth: either parse, so that one without the other is
    a fault at its line rather than a video without ground truth."""
    return rec.get("gt_audio") is not None or rec.get("gt_visual") is not None


def _default_class_names(c):
    return [f"class_{i:02d}" for i in range(c)]


def _class_names_ok(names, c):
    return isinstance(names, list) and len(names) == c and all(isinstance(n, str) for n in names)


def _header_prototypes(header, key, c, d, where):
    """The header's prototype matrix under `key`, or None: C x D finite numbers."""
    value = header.get(key)
    if value is None:
        return None
    try:
        matrix = np.asarray(value)
        ok = matrix.dtype.kind in "iuf" and matrix.shape == (c, d) and np.isfinite(matrix).all()
    except ValueError:  # ragged rows
        ok = False
    if not ok:
        raise FileFormatError(f"{where}: {key} must be a {c} x {d} matrix of finite numbers")
    return matrix.astype(np.float64)


def _header_spec(header, t, c, d, where):
    """The header's `spec`, or None: a valid `CorpusSpec` of the header's T, C and D.

    Its `n_videos` may differ from the file's, as it does in a split corpus.
    """
    mapping = header.get("spec")
    if mapping is None:
        return None
    if not isinstance(mapping, dict):
        raise FileFormatError(f"{where}: spec must be an object, got {mapping!r}")
    try:
        spec = CorpusSpec.from_mapping(mapping)
        spec.validate()
    except (TypeError, ValueError, OverflowError) as err:  # an unknown field is a TypeError
        raise FileFormatError(f"{where}: spec: {err}") from err
    if (spec.segments, spec.classes, spec.dim) != (t, c, d):
        raise FileFormatError(
            f"{where}: spec has segments={spec.segments}, classes={spec.classes}, "
            f"dim={spec.dim}, header says T={t}, C={c}, D={d}"
        )
    return spec
