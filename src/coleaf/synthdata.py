"""Seeded generator of weakly labeled synthetic corpora with exact ground truth.

Features are class prototypes plus noise: each modality has one unit-norm
prototype per class, a segment's token is the sum of the prototypes active in
that modality, and a `leak` fraction of the prototype bleeds into the other
modality for unaligned events. Per-video RNG streams make generation
order-independent and reproducible.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .branches import VideoSample
from .errors import ConfigError, DimensionError, FileFormatError
from .metrics import BinaryParse


@dataclass(eq=False)
class CorpusSpec:
    n_videos: int = 500
    segments: int = 10  # T
    classes: int = 5  # C
    dim: int = 16  # D
    event_rate: float = 2.5  # expected events per video
    p_audio_only: float = 0.3
    p_visual_only: float = 0.3
    p_audible_visible: float = 0.4
    leak: float = 0.0  # cross-modal feature leakage for unaligned events
    noise_sigma: float = 0.1  # per-coordinate gaussian noise
    cooccur: np.ndarray | None = None  # C x C symmetric boosts, zero diagonal
    seed: int = 0

    def validate(self):
        if self.n_videos < 0 or self.segments < 1 or self.classes < 1 or self.dim < 1:
            raise ConfigError("corpus dimensions must be positive")
        mix = self.p_audio_only + self.p_visual_only + self.p_audible_visible
        if abs(mix - 1.0) > 1e-9:
            raise ConfigError(f"event-type mix must sum to 1, got {mix}")
        if min(self.p_audio_only, self.p_visual_only, self.p_audible_visible) < 0:
            raise ConfigError("event-type probabilities must be non-negative")
        if not 0.0 <= self.leak <= 1.0:
            raise ConfigError(f"leak must lie in [0,1], got {self.leak}")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        if self.event_rate < 0 or self.event_rate > self.classes:
            raise ConfigError(
                f"event_rate must lie in [0, {self.classes}] for {self.classes} classes, "
                f"got {self.event_rate}"
            )
        if self.cooccur is not None:
            m = np.asarray(self.cooccur, dtype=np.float64)
            if m.shape != (self.classes, self.classes):
                raise ConfigError(f"cooccur must be {self.classes}x{self.classes}, got {m.shape}")
            if not np.allclose(m, m.T):
                raise ConfigError("cooccur must be symmetric")
            if np.any(np.diag(m) != 0):
                raise ConfigError("cooccur must have a zero diagonal")
            if np.any(m < 0):
                raise ConfigError("cooccur boosts must be non-negative")

    def to_mapping(self):
        out = asdict(self)
        if self.cooccur is not None:
            out["cooccur"] = np.asarray(self.cooccur).tolist()
        return out

    @classmethod
    def from_mapping(cls, mapping):
        data = dict(mapping)
        if data.get("cooccur") is not None:
            data["cooccur"] = np.asarray(data["cooccur"], dtype=np.float64)
        return cls(**data)

    def __eq__(self, other):
        if not isinstance(other, CorpusSpec):
            return NotImplemented
        a, b = self.to_mapping(), other.to_mapping()
        return all(
            np.array_equal(a[k], b[k]) if k == "cooccur" else a[k] == b[k] for k in a
        )


@dataclass(eq=False)
class GeneratedCorpus:
    samples: list
    prototypes_audio: np.ndarray | None  # C x D
    prototypes_visual: np.ndarray | None
    spec: CorpusSpec | None

    @property
    def n_videos(self):
        return len(self.samples)

    def __eq__(self, other):
        if not isinstance(other, GeneratedCorpus):
            return NotImplemented
        protos_equal = all(
            (a is None and b is None) or (a is not None and b is not None and np.array_equal(a, b))
            for a, b in (
                (self.prototypes_audio, other.prototypes_audio),
                (self.prototypes_visual, other.prototypes_visual),
            )
        )
        return protos_equal and self.spec == other.spec and self.samples == other.samples


def weak_labels_from_temporal(gt):
    """Video-level label: class present in any segment of either modality."""
    return ((gt.audio.any(axis=0)) | (gt.visual.any(axis=0))).astype(np.int64)


def _unit_rows(matrix):
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def _sample_classes(rng, n_classes, n_events, cooccur):
    chosen = []
    remaining = list(range(n_classes))
    for _ in range(n_events):
        if cooccur is None or not chosen:
            weights = np.ones(len(remaining))
        else:
            weights = np.array([1.0 + sum(cooccur[j, k] for k in chosen) for j in remaining])
        weights = weights / weights.sum()
        pick = int(rng.choice(remaining, p=weights))
        chosen.append(pick)
        remaining.remove(pick)
    return chosen


AUDIO_ONLY, VISUAL_ONLY, AUDIBLE_VISIBLE = 0, 1, 2


def generate_corpus(spec):
    """Sample a corpus of weakly labeled videos with known segment ground truth.

    Each video draws a Poisson number of events (capped at one per class);
    classes are drawn sequentially with co-occurrence boosts from the classes
    already placed; each event gets a type from the configured mix and a
    uniform temporal extent. Video i uses its own RNG stream derived from
    (seed, i), so results do not depend on generation order.
    """
    spec.validate()
    t, c, d = spec.segments, spec.classes, spec.dim
    proto_rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0)))
    protos_a = _unit_rows(proto_rng.normal(size=(c, d)))
    protos_v = _unit_rows(proto_rng.normal(size=(c, d)))
    mix = np.array([spec.p_audio_only, spec.p_visual_only, spec.p_audible_visible])
    mix = mix / mix.sum()
    samples = []
    for i in range(spec.n_videos):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 1 + i)))
        gt_a = np.zeros((t, c), dtype=np.int64)
        gt_v = np.zeros((t, c), dtype=np.int64)
        n_events = min(int(rng.poisson(spec.event_rate)), c)
        for cls in _sample_classes(rng, c, n_events, spec.cooccur):
            kind = int(rng.choice(3, p=mix))
            length = int(rng.integers(1, t + 1))
            start = int(rng.integers(0, t - length + 1))
            if kind in (AUDIO_ONLY, AUDIBLE_VISIBLE):
                gt_a[start : start + length, cls] = 1
            if kind in (VISUAL_ONLY, AUDIBLE_VISIBLE):
                gt_v[start : start + length, cls] = 1
        audio = gt_a @ protos_a + spec.leak * ((gt_v * (1 - gt_a)) @ protos_a)
        visual = gt_v @ protos_v + spec.leak * ((gt_a * (1 - gt_v)) @ protos_v)
        audio = audio + spec.noise_sigma * rng.normal(size=(t, d))
        visual = visual + spec.noise_sigma * rng.normal(size=(t, d))
        gt = BinaryParse(audio=gt_a, visual=gt_v)
        samples.append(
            VideoSample(
                id=f"vid{i:05d}",
                audio_tokens=audio,
                visual_tokens=visual,
                weak_label=weak_labels_from_temporal(gt),
                gt=gt,
            )
        )
    return GeneratedCorpus(
        samples=samples,
        prototypes_audio=protos_a,
        prototypes_visual=protos_v,
        spec=spec,
    )


def save_corpus(corpus, path):
    """Write a corpus as JSON Lines: one header object, then one object per video."""
    spec = corpus.spec
    if spec is not None:
        t, c, d = spec.segments, spec.classes, spec.dim
    else:
        first = corpus.samples[0]
        t, c, d = first.n_segments, first.n_classes, first.dim
    header = {
        "n_videos": corpus.n_videos,
        "T": t,
        "C": c,
        "D": d,
        "class_names": [f"class_{i:02d}" for i in range(c)],
        "prototypes_audio": None
        if corpus.prototypes_audio is None
        else corpus.prototypes_audio.tolist(),
        "prototypes_visual": None
        if corpus.prototypes_visual is None
        else corpus.prototypes_visual.tolist(),
        "spec": None if spec is None else spec.to_mapping(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for s in corpus.samples:
            record = {
                "id": s.id,
                "audio": s.audio_tokens.tolist(),
                "visual": s.visual_tokens.tolist(),
                "weak_label": s.weak_label.tolist(),
                "gt_audio": None if s.gt is None else s.gt.audio.tolist(),
                "gt_visual": None if s.gt is None else s.gt.visual.tolist(),
            }
            fh.write(json.dumps(record) + "\n")


def load_corpus(path):
    """Read a corpus file written by `save_corpus`; round-trips bit-exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError(f"{path}:1: empty file, expected a header object")

    def parse(line_no, text, required):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            raise FileFormatError(f"{path}:{line_no}: {err.msg}") from err
        if not isinstance(obj, dict):
            raise FileFormatError(f"{path}:{line_no}: expected a JSON object")
        missing = [k for k in required if k not in obj]
        if missing:
            raise FileFormatError(f"{path}:{line_no}: missing keys {', '.join(missing)}")
        return obj

    header = parse(1, lines[0], ("n_videos", "T", "C", "D", "class_names"))
    t, c, d = header["T"], header["C"], header["D"]
    samples = []
    for offset, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        rec = parse(offset, text, ("id", "audio", "visual", "weak_label"))
        try:
            gt = None
            if rec.get("gt_audio") is not None:
                gt = BinaryParse(audio=rec["gt_audio"], visual=rec.get("gt_visual"))
            sample = VideoSample(
                id=rec["id"],
                audio_tokens=rec["audio"],
                visual_tokens=rec["visual"],
                weak_label=rec["weak_label"],
                gt=gt,
            )
        except (TypeError, ValueError, DimensionError) as err:
            raise FileFormatError(f"{path}:{offset}: {err}") from err
        if sample.audio_tokens.shape != (t, d) or sample.n_classes != c:
            raise FileFormatError(
                f"{path}:{offset}: video {sample.id} has T x D {sample.audio_tokens.shape} "
                f"and C {sample.n_classes}, header says T={t}, D={d}, C={c}"
            )
        samples.append(sample)
    if len(samples) != header["n_videos"]:
        raise FileFormatError(
            f"{path}:{len(lines)}: header promises {header['n_videos']} videos, found {len(samples)}"
        )
    protos_a = header.get("prototypes_audio")
    protos_v = header.get("prototypes_visual")
    spec_map = header.get("spec")
    return GeneratedCorpus(
        samples=samples,
        prototypes_audio=None if protos_a is None else np.asarray(protos_a, dtype=np.float64),
        prototypes_visual=None if protos_v is None else np.asarray(protos_v, dtype=np.float64),
        spec=None if spec_map is None else CorpusSpec.from_mapping(spec_map),
    )
