import json

import numpy as np
import pytest

from coleaf.metrics import BinaryParse
from coleaf.errors import ConfigError, FileFormatError
from coleaf.synthdata import (
    CorpusSpec,
    generate_corpus,
    load_corpus,
    save_corpus,
    weak_labels_from_temporal,
)


def small_spec(**overrides):
    base = dict(n_videos=10, segments=6, classes=4, dim=8, event_rate=2.0, seed=11)
    base.update(overrides)
    return CorpusSpec(**base)


def test_weak_labels_all_zero():
    gt = BinaryParse(np.zeros((3, 2)), np.zeros((3, 2)))
    assert weak_labels_from_temporal(gt).tolist() == [0, 0]


def test_weak_labels_single_audio_positive():
    audio = np.zeros((3, 2), dtype=int)
    audio[1, 0] = 1
    gt = BinaryParse(audio, np.zeros((3, 2)))
    assert weak_labels_from_temporal(gt).tolist() == [1, 0]


def test_weak_labels_match_or_reduction():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, 2, (5, 4))
        v = rng.integers(0, 2, (5, 4))
        got = weak_labels_from_temporal(BinaryParse(a, v))
        want = [int(any(a[t, i] or v[t, i] for t in range(5))) for i in range(4)]
        assert got.tolist() == want


def test_weak_labels_hide_modality():
    # moving an unaligned event to the other modality changes gt but not Y
    audio = np.zeros((4, 3), dtype=int)
    audio[0:2, 1] = 1
    gt_audio_side = BinaryParse(audio, np.zeros_like(audio))
    gt_visual_side = BinaryParse(np.zeros_like(audio), audio)
    assert np.array_equal(
        weak_labels_from_temporal(gt_audio_side), weak_labels_from_temporal(gt_visual_side)
    )


def test_generate_noise_free_single_event():
    # force one full-length event: event_rate == classes makes the Poisson
    # draw irrelevant only when it lands high, so sample until a video with
    # exactly one audio-only event spanning all segments shows up
    spec = small_spec(
        n_videos=40,
        event_rate=1.0,
        p_audio_only=1.0,
        p_visual_only=0.0,
        p_audible_visible=0.0,
        noise_sigma=0.0,
        leak=0.0,
    )
    corpus = generate_corpus(spec)
    hits = 0
    for s in corpus.samples:
        per_class = s.gt.audio.sum(axis=0)
        full = np.flatnonzero(per_class == spec.segments)
        if s.gt.audio.sum() == spec.segments and len(full) == 1 and s.gt.visual.sum() == 0:
            k = full[0]
            assert np.allclose(s.audio_tokens, corpus.prototypes_audio[k][None, :])
            assert np.allclose(s.visual_tokens, 0.0)
            hits += 1
    assert hits > 0


def test_generate_all_audible_visible():
    spec = small_spec(p_audio_only=0.0, p_visual_only=0.0, p_audible_visible=1.0)
    corpus = generate_corpus(spec)
    for s in corpus.samples:
        assert np.array_equal(s.gt.audio, s.gt.visual)


def test_generate_is_deterministic():
    a = generate_corpus(small_spec())
    b = generate_corpus(small_spec())
    assert a == b


def test_generate_weak_labels_consistent():
    corpus = generate_corpus(small_spec(leak=0.4, noise_sigma=0.2))
    for s in corpus.samples:
        assert np.array_equal(s.weak_label, weak_labels_from_temporal(s.gt))


def test_leak_zero_audio_carries_no_visual_only_signal():
    spec = small_spec(
        n_videos=30, p_audio_only=0.0, p_visual_only=1.0, p_audible_visible=0.0,
        leak=0.0, noise_sigma=0.0,
    )
    corpus = generate_corpus(spec)
    for s in corpus.samples:
        assert np.allclose(s.audio_tokens, 0.0)


def test_leak_strength_shows_up_in_features():
    spec = small_spec(
        n_videos=30, p_audio_only=0.0, p_visual_only=1.0, p_audible_visible=0.0,
        leak=0.5, noise_sigma=0.0,
    )
    corpus = generate_corpus(spec)
    found = False
    for s in corpus.samples:
        for t in range(spec.segments):
            active = np.flatnonzero(s.gt.visual[t])
            if len(active) == 1:
                expected = 0.5 * corpus.prototypes_audio[active[0]]
                assert np.allclose(s.audio_tokens[t], expected)
                found = True
    assert found


def test_event_type_mix_matches_spec():
    spec = CorpusSpec(
        n_videos=600, segments=5, classes=5, dim=4, event_rate=3.0,
        p_audio_only=0.25, p_visual_only=0.25, p_audible_visible=0.5, seed=3,
    )
    corpus = generate_corpus(spec)
    counts = np.zeros(3)
    for s in corpus.samples:
        for c in range(spec.classes):
            a = s.gt.audio[:, c].any()
            v = s.gt.visual[:, c].any()
            if a and not v:
                counts[0] += 1
            elif v and not a:
                counts[1] += 1
            elif a and v:
                counts[2] += 1
    n = counts.sum()
    assert n >= 1000
    for k, p in enumerate((0.25, 0.25, 0.5)):
        se = np.sqrt(p * (1 - p) / n)
        assert abs(counts[k] / n - p) <= 3 * se


def test_cooccur_boost_raises_pair_frequency():
    c = 4
    boost = np.zeros((c, c))
    boost[0, 1] = boost[1, 0] = 25.0
    plain = CorpusSpec(n_videos=400, segments=4, classes=c, dim=4, event_rate=2.0, seed=5)
    boosted = CorpusSpec(
        n_videos=400, segments=4, classes=c, dim=4, event_rate=2.0, seed=5, cooccur=boost
    )

    def pair_rate(corpus):
        both = sum(
            1
            for s in corpus.samples
            if s.weak_label[0] and s.weak_label[1]
        )
        return both / len(corpus.samples)

    assert pair_rate(generate_corpus(boosted)) > pair_rate(generate_corpus(plain))


def test_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(event_rate=10.0).validate()  # above class count
    with pytest.raises(ConfigError):
        small_spec(p_audio_only=0.5).validate()  # mix no longer sums to 1
    with pytest.raises(ConfigError):
        small_spec(leak=1.5).validate()
    bad = np.ones((4, 4))
    with pytest.raises(ConfigError):
        small_spec(cooccur=bad).validate()  # nonzero diagonal


def test_round_trip_identity(tmp_path):
    corpus = generate_corpus(small_spec(leak=0.3, noise_sigma=0.15))
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded == corpus
    # serialize again: byte-identical files
    second = tmp_path / "again.jsonl"
    save_corpus(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_empty_corpus_round_trip(tmp_path):
    corpus = generate_corpus(small_spec(n_videos=0))
    path = tmp_path / "empty.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.n_videos == 0
    assert loaded == corpus


def test_truncated_file_names_line(tmp_path):
    corpus = generate_corpus(small_spec(n_videos=3))
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    clipped = tmp_path / "clipped.jsonl"
    clipped.write_text("\n".join(lines[:2] + [lines[2][: len(lines[2]) // 2]]) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_corpus(clipped)
    assert ":3:" in str(err.value)


def test_header_only_required_keys(tmp_path):
    path = tmp_path / "minimal.jsonl"
    header = {"n_videos": 0, "T": 4, "C": 2, "D": 3, "class_names": ["a", "b"]}
    path.write_text(json.dumps(header) + "\n")
    loaded = load_corpus(path)
    assert loaded.n_videos == 0
    assert loaded.prototypes_audio is None


def test_missing_header_key_is_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"n_videos": 0, "T": 4}) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_corpus(path)
    assert ":1:" in str(err.value)


def test_per_video_streams_independent_of_corpus_size():
    # the first videos of a longer corpus are bit-identical to a shorter one
    long = generate_corpus(small_spec(n_videos=10))
    short = generate_corpus(small_spec(n_videos=4))
    for a, b in zip(short.samples, long.samples):
        assert a == b


@pytest.mark.parametrize(
    "changes",
    [
        {"gt_audio": [[0, 1], [1, 0], [0, 0]], "gt_visual": [[0, 1], [1, 0]]},
        {"gt_audio": [0, 1], "gt_visual": [1, 0]},
        {"gt_audio": [[0, 1], [1, 0], [0, 0]], "gt_visual": None},
        {"gt_audio": [[7, 0], [0, 0], [0, 0]]},
        {"gt_visual": [[0.5, 0], [0, 0], [0, 0]]},
        {"weak_label": [3, 0]},
        {"audio": [[float("nan")] * 8] * 3},
        {"visual": [[float("inf")] * 8] * 3},
    ],
    ids=[
        "shapes-differ", "one-dimensional", "visual-missing", "gt-seven", "gt-half",
        "weak-label-three", "nan-token", "infinite-token",
    ],
)
def test_bad_ground_truth_names_line(tmp_path, changes):
    corpus = generate_corpus(small_spec(n_videos=2, segments=3, classes=2))
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec.update(changes)
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_corpus(path)
    assert f"{path}:3:" in str(err.value)
