import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from coleaf.errors import ConfigError, FileFormatError
from coleaf.fileio import _ENCODER
from coleaf.records import SCORE_BLOCK_VIDEOS, BinaryParse, unchecked
from coleaf.synthdata import (
    CorpusSpec,
    GeneratedCorpus,
    _cdf,
    _draw,
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


def test_0_1_fields_are_written_as_one_byte_and_load_as_int64(tmp_path):
    corpus = generate_corpus(small_spec(n_videos=LONG))
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    for line in path.read_text().splitlines()[1:]:
        record = json.loads(line)
        assert [record[key]["dtype"] for key in ("weak_label", "gt_audio", "gt_visual")] == ["|u1"] * 3
    loaded = load_corpus(path)
    assert loaded.samples == corpus.samples
    for sample in loaded.samples:
        assert sample.weak_label.dtype == sample.gt.audio.dtype == sample.gt.visual.dtype == np.int64


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


@pytest.mark.parametrize(
    "new_id, message",
    [("vid00000", "repeats line 2"), ({"a": 1}, "must be a string"), (7, "must be a string")],
    ids=["repeated", "dict", "number"],
)
def test_bad_video_id_names_line(tmp_path, new_id, message):
    corpus = generate_corpus(small_spec(n_videos=3))
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["id"] = new_id
    lines[3] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_corpus(path)
    assert f"{path}:4:" in str(err.value)
    assert message in str(err.value)


def test_weak_labels_of_stacked_parses_are_each_videos_labels():
    audio, visual = np.random.default_rng(1).integers(0, 2, (2, 7, 5, 4))
    block = weak_labels_from_temporal(unchecked(BinaryParse, audio=audio, visual=visual))
    assert block.shape == (7, 4)
    for a, v, labels in zip(audio, visual, block):
        assert np.array_equal(labels, weak_labels_from_temporal(BinaryParse(a, v)))


def test_per_video_streams_independent_of_corpus_size():
    # the first videos of a longer corpus are bit-identical to a shorter one, wherever
    # the shorter one's last block ends
    longest = generate_corpus(small_spec(n_videos=2 * SCORE_BLOCK_VIDEOS + 3))
    for n_videos in (4, 10, SCORE_BLOCK_VIDEOS - 1, SCORE_BLOCK_VIDEOS + 1):
        short = generate_corpus(small_spec(n_videos=n_videos))
        assert short.samples == longest.samples[:n_videos], n_videos


def test_a_generated_videos_arrays_are_apart_from_its_block_neighbours():
    corpus = generate_corpus(small_spec(n_videos=LONG))
    changed = {0, SCORE_BLOCK_VIDEOS // 2, SCORE_BLOCK_VIDEOS - 1, SCORE_BLOCK_VIDEOS}
    for i in changed:
        sample = corpus.samples[i]
        for array in (sample.audio_tokens, sample.visual_tokens, sample.weak_label,
                      sample.gt.audio, sample.gt.visual):
            array[...] = 7
    for i, (a, b) in enumerate(zip(corpus.samples, generate_corpus(small_spec(n_videos=LONG)).samples)):
        assert (a == b) is (i not in changed), i


DESK = dict(segments=10, classes=5, dim=16, event_rate=2.5, leak=0.3, noise_sigma=0.15)
_BOOSTS = np.full((5, 5), 2.0) - 2.0 * np.eye(5)
_BOOSTS[0, 1] = _BOOSTS[1, 0] = 6.0


def _corpus_digest(corpus):
    """sha256 over each video's id and the dtype, shape and bytes of its five arrays."""
    digest = hashlib.sha256()
    for s in corpus.samples:
        digest.update(s.id.encode())
        for array in (s.audio_tokens, s.visual_tokens, s.weak_label, s.gt.audio, s.gt.visual):
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "spec, expected",
    [
        (CorpusSpec(n_videos=SCORE_BLOCK_VIDEOS + 1, seed=23, **DESK),
         "e988dfef30480fd9320a1c4dc94f81310b26c6f65f2ff18c8c8c723378d60e6e"),
        (CorpusSpec(n_videos=3, seed=24, **{**DESK, "classes": 25, "dim": 256}),
         "a2be1219cdd564f99b0744e600bc440dfe8f1654e3cb001fc254991ddf74deb6"),
        (CorpusSpec(n_videos=40, classes=5, cooccur=_BOOSTS, p_audio_only=0.1, p_visual_only=0.6,
                    p_audible_visible=0.3, event_rate=3.0, leak=0.2, seed=25),
         "67cfee0f41af73bd2101e5c0df883213ad97ac61458889bbc2085a665bf1ca6e"),
        (CorpusSpec(n_videos=20, segments=1, classes=1, dim=1, event_rate=1.0, seed=26),
         "713e4fddcc68f4a18869aa8342ed5606b6c449a396701c98109b6bfd24a9c255"),
    ],
    ids=["desk-past-a-block", "llp-shape", "cooccur", "one-by-one-by-one"],
)
def test_generated_corpora_keep_their_pinned_bytes(spec, expected):
    # digests taken from the per-video generator that came before the block-wise one
    assert _corpus_digest(generate_corpus(spec)) == expected


def test_the_cdf_draw_is_generator_choice():
    # the same index as `Generator.choice(n, p=p)`, and the stream left in the same state
    weights_rng = np.random.default_rng(0)
    for seed in range(1000):
        weights = weights_rng.uniform(size=1 + seed % 7) * (weights_rng.uniform(size=1 + seed % 7) < 0.8)
        weights[seed % len(weights)] += 1.0  # never all zero
        chosen, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _draw(drawn, _cdf(weights)) == chosen.choice(len(weights), p=weights / weights.sum())
        assert drawn.random() == chosen.random()


def _u1_payload(rows):
    """`rows` as the one-byte payload object `save_corpus` writes for a 0/1 field."""
    return json.loads(_ENCODER.encode(np.array(rows, dtype=np.uint8)))


# videos in a corpus file whose records span two check blocks
LONG = SCORE_BLOCK_VIDEOS + 10


def _record_lines(n_videos):
    """The lines of a corpus file's first record, one in the middle of the first block,
    the first of the second block and the last."""
    return 2, 2 + n_videos // 2, 2 + SCORE_BLOCK_VIDEOS, 1 + n_videos


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"gt_audio": [[0, 1], [1, 0], [0, 0]], "gt_visual": [[0, 1], [1, 0]]},
         "parse matrices must share T x C, got (3, 2) and (2, 2)"),
        ({"gt_audio": [0, 1], "gt_visual": [1, 0]}, "parse matrices must share T x C, got (2,) and (2,)"),
        ({"gt_audio": [[0, 1], [1, 0], [0, 0]], "gt_visual": None}, "missing key gt_visual"),
        ({"gt_audio": [[7, 0], [0, 0], [0, 0]]}, "audio parse must hold only 0 and 1"),
        ({"gt_visual": [[0.5, 0], [0, 0], [0, 0]]}, "visual parse must hold only 0 and 1"),
        ({"weak_label": [3, 0]}, "weak label must hold only 0 and 1"),
        ({"gt_audio": _u1_payload([[0, 0], [2, 0], [0, 0]])}, "audio parse must hold only 0 and 1"),
        ({"weak_label": _u1_payload([0, 3])}, "weak label must hold only 0 and 1"),
        ({"gt_visual": _u1_payload([[0, 1], [1, 0]])},
         "parse matrices must share T x C, got (3, 2) and (2, 2)"),
        ({"audio": [[float("nan")] * 8] * 3}, "tokens must be finite"),
        ({"visual": [[float("inf")] * 8] * 3}, "tokens must be finite"),
        ({"audio": [[10**400] * 8] * 3}, "int too large to convert to float"),
        ({"gt_audio": None}, "missing key gt_audio"),
        ({"weak_label": 1}, "weak labels must be C, got ()"),
        ({"weak_label": [[0, 1], [1, 0]]}, "weak labels must be C, got (2, 2)"),
        ({"weak_label": _u1_payload([[0, 1], [1, 0]])}, "weak labels must be C, got (2, 2)"),
    ],
    ids=[
        "shapes-differ", "one-dimensional", "visual-missing", "gt-seven", "gt-half",
        "weak-label-three", "gt-two-payload", "weak-label-three-payload", "shapes-differ-payload",
        "nan-token", "infinite-token", "int-too-large-token", "audio-missing", "weak-label-scalar",
        "weak-label-matrix", "weak-label-matrix-payload",
    ],
)
def test_bad_ground_truth_names_line(tmp_path, changes, message):
    """The same message at the same line wherever the record sits among the check blocks."""
    path, lines = _saved_lines(tmp_path, generate_corpus(small_spec(n_videos=LONG, segments=3, classes=2)))
    for line in _record_lines(LONG):
        rec = json.loads(lines[line - 1])
        rec.update(changes)
        path.write_text("\n".join(lines[: line - 1] + [json.dumps(rec)] + lines[line:]) + "\n")
        with pytest.raises(FileFormatError) as err:
            load_corpus(path)
        assert str(err.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("absent", ["gt_audio", "gt_visual"])
def test_half_ground_truth_names_the_absent_key(tmp_path, absent):
    path, lines = _saved_lines(tmp_path, generate_corpus(small_spec(n_videos=3)))
    rec = json.loads(lines[2])
    del rec[absent]
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}:3: missing key {absent}"


def test_a_corpus_longer_than_a_block_loads_equal_and_its_videos_stay_apart(tmp_path):
    corpus = generate_corpus(small_spec(n_videos=LONG))
    path, _ = _saved_lines(tmp_path, corpus)
    loaded = load_corpus(path)
    assert loaded == corpus
    second = tmp_path / "again.jsonl"
    save_corpus(loaded, second)
    assert second.read_bytes() == path.read_bytes()
    # each video's arrays are its own: writing into one leaves every other as it was
    for sample in loaded.samples[SCORE_BLOCK_VIDEOS - 1 : SCORE_BLOCK_VIDEOS + 1]:
        for array in (sample.audio_tokens, sample.visual_tokens, sample.weak_label, sample.gt.audio):
            array[...] = 7
    changed = {SCORE_BLOCK_VIDEOS - 1, SCORE_BLOCK_VIDEOS}
    for i, (a, b) in enumerate(zip(loaded.samples, corpus.samples)):
        assert (a == b) is (i not in changed), i


def test_videos_with_and_without_ground_truth_load_one_by_one(tmp_path):
    corpus = generate_corpus(small_spec(n_videos=LONG))
    corpus.samples[5] = dataclasses.replace(corpus.samples[5], gt=None)
    path, _ = _saved_lines(tmp_path, corpus)
    assert load_corpus(path) == corpus


def _saved_lines(tmp_path, corpus):
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize("changes", [{"T": 7}, {"D": 9}, {"C": 5}], ids=["T", "D", "C"])
def test_record_that_disagrees_with_the_header_names_line(tmp_path, changes):
    path, lines = _saved_lines(tmp_path, generate_corpus(small_spec(n_videos=2)))
    header = json.loads(lines[0])
    header.update(changes)
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_corpus(path)
    assert f"{path}:2: video vid00000 has T x D (6, 8) and C 4, header says" in str(err.value)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"spec": "x"}, "spec must be an object"),
        ({"spec": {"segments": 6, "classes": 4, "dim": 8, "colour": 1}}, "unexpected keyword argument 'colour'"),
        ({"spec": {"segments": 6, "classes": 4, "dim": 8, "leak": 2.0}}, "spec: leak must be in [0,1], got 2.0"),
        ({"spec": {"segments": 6, "classes": 7, "dim": 8}}, "spec has segments=6, classes=7, dim=8, header says"),
        ({"spec": {"segments": 6, "classes": 4, "dim": 8, "seed": "x"}}, "spec: seed must be an integer"),
        ({"spec": {"segments": 6, "classes": 4, "dim": 8, "event_rate": 10**400}},
         "spec: event_rate must be finite, got inf"),
        ({"spec": {"segments": 6, "classes": 4, "dim": 8, "cooccur": [[10**400] * 4] * 4}},
         "spec: int too large to convert to float"),
        ({"prototypes_audio": [["a"] * 8] * 4}, "prototypes_audio must be a 4 x 8 matrix of finite numbers"),
        ({"prototypes_audio": [[1, 2]]}, "prototypes_audio must be a 4 x 8 matrix"),
        ({"prototypes_visual": [[1.0] * 8] * 3 + [[1.0] * 7]}, "prototypes_visual must be a 4 x 8 matrix"),
        ({"prototypes_visual": [[float("nan")] * 8] * 4}, "prototypes_visual must be a 4 x 8 matrix"),
        ({"prototypes_audio": {"dtype": "<f8", "shape": [1] * 70, "b64": "AAAAAAAAAAA="}},
         f"payload shape {[1] * 70} does not fit an array: "),
        ({"T": "6"}, "T, C and D must be positive integers"),
        ({"class_names": [0, 1, 2, 3]}, "class_names must be a list of strings"),
        ({"class_names": []}, "class_names must be a list of strings, C=4 of them"),
        ({"class_names": list("abcde")}, "class_names must be a list of strings, C=4 of them"),
    ],
    ids=[
        "spec-text", "spec-unknown-field", "spec-invalid", "spec-other-classes", "spec-text-seed",
        "spec-int-too-large", "spec-cooccur-int-too-large",
        "prototype-text", "prototype-shape", "prototype-ragged", "prototype-nan", "prototype-too-many-axes",
        "T-text", "class-names-numbers", "class-names-none", "class-names-five",
    ],
)
def test_bad_header_spec_or_prototypes_names_line_1(tmp_path, changes, message):
    path, lines = _saved_lines(tmp_path, generate_corpus(small_spec(n_videos=2)))
    header = json.loads(lines[0])
    header.update(changes)
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"{path}:1: ")
    assert message in str(err.value)


def test_header_video_count_must_match_the_records(tmp_path):
    path, lines = _saved_lines(tmp_path, generate_corpus(small_spec(n_videos=3)))
    header = json.loads(lines[0])
    header["n_videos"] = 5
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_corpus(path)
    assert f"{path}:4: header promises 5 videos, found 3" in str(err.value)


@pytest.mark.parametrize("n_videos", [True, 1.0, -1, "1", None], ids=["bool", "float", "negative", "text", "null"])
def test_header_video_count_must_be_a_non_negative_integer(tmp_path, n_videos):
    """At the header's line, as T, C and D are, even where the count would match."""
    path, lines = _saved_lines(tmp_path, generate_corpus(small_spec(n_videos=1)))
    lines[0] = json.dumps(dict(json.loads(lines[0]), n_videos=n_videos))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}:1: n_videos must be a non-negative integer"


def test_cooccur_spec_round_trips_and_regenerates_the_corpus(tmp_path):
    cooccur = np.full((4, 4), 2.0) - 2.0 * np.eye(4)
    corpus = generate_corpus(small_spec(n_videos=4, cooccur=cooccur))
    path, _ = _saved_lines(tmp_path, corpus)
    loaded = load_corpus(path)
    assert loaded == corpus
    assert loaded.spec.cooccur.dtype == np.float64
    # the spec read back drives the generator like the one written
    assert generate_corpus(loaded.spec) == corpus


def test_empty_corpus_without_a_spec_or_a_header_cannot_be_saved(tmp_path):
    with pytest.raises(ConfigError, match="empty corpus without a spec has no T, C and D"):
        save_corpus(GeneratedCorpus([], None, None, None), tmp_path / "again.jsonl")
    assert not (tmp_path / "again.jsonl").exists()


@pytest.mark.parametrize("names", [["dog"], ["dog", 7, "cat", "bird"]], ids=["one", "a-number"])
def test_a_corpus_whose_class_names_are_not_c_strings_cannot_be_saved(tmp_path, names):
    corpus = generate_corpus(small_spec(n_videos=1))
    corpus.class_names = names
    with pytest.raises(ConfigError, match=r"class_names must be a list of strings, C=4 of them"):
        save_corpus(corpus, tmp_path / "again.jsonl")
    assert not (tmp_path / "again.jsonl").exists()


def _spec_less_file(tmp_path, n_videos, class_names):
    """A corpus file with `spec: null` whose header names its classes."""
    samples = generate_corpus(small_spec(n_videos=n_videos, classes=2)).samples
    corpus = GeneratedCorpus(samples, None, None, None, shape=None if samples else (6, 2, 8))
    path, lines = _saved_lines(tmp_path, corpus)
    header = json.loads(lines[0])
    header["class_names"] = class_names
    lines[0] = json.dumps(header)
    path.write_text("".join(line + "\n" for line in lines))
    return path


@pytest.mark.parametrize("n_videos", [0, 1])
def test_header_names_and_shape_survive_a_load_then_save(tmp_path, n_videos):
    path = _spec_less_file(tmp_path, n_videos, ["dog", "speech"])
    loaded = load_corpus(path)
    assert loaded.spec is None and loaded.class_names == ["dog", "speech"]
    again = tmp_path / "again.jsonl"
    save_corpus(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_default_class_names_load_as_none(tmp_path):
    loaded = load_corpus(_spec_less_file(tmp_path, 1, ["class_00", "class_01"]))
    assert loaded.class_names is None
    assert loaded == GeneratedCorpus(loaded.samples, None, None, None)


@pytest.mark.parametrize("changes", [{"classes": 7}, {"segments": 5}, {"dim": 9}])
def test_save_rejects_a_spec_that_disagrees_with_the_samples(tmp_path, changes):
    corpus = generate_corpus(small_spec(n_videos=2))
    corpus.spec = dataclasses.replace(corpus.spec, **changes)
    path = tmp_path / "corpus.jsonl"
    with pytest.raises(ConfigError, match="^video vid00000 has T x D \\(6, 8\\) and C 4, the corpus says"):
        save_corpus(corpus, path)
    assert not path.exists()


def test_save_rejects_samples_of_two_lengths(tmp_path):
    samples = generate_corpus(small_spec(n_videos=3)).samples
    odd = samples[1]
    samples[1] = dataclasses.replace(odd, audio_tokens=odd.audio_tokens[:-1],
                                     visual_tokens=odd.visual_tokens[:-1], gt=None)
    path = tmp_path / "corpus.jsonl"
    with pytest.raises(ConfigError, match="^video vid00001 has T x D \\(5, 8\\)"):
        save_corpus(GeneratedCorpus(samples, None, None, None), path)
    assert not path.exists()


@pytest.mark.parametrize(
    "field, value, message",
    [("seed", "x", "seed must be an integer, got 'x'"),
     ("seed", 1.5, "seed must be an integer, got 1.5"),
     ("seed", True, "seed must be an integer, got True"),
     ("seed", -1, "seed must be >= 0, got -1"),
     ("n_videos", -1, "n_videos must be in [0,1000000], got -1"),
     ("n_videos", 2.0, "n_videos must be an integer, got 2.0"),
     ("segments", 0, "segments must be in [1,1000], got 0"),
     ("classes", "4", "classes must be an integer, got '4'"),
     ("dim", False, "dim must be an integer, got False"),
     ("dim", 8193, "dim must be in [1,8192], got 8193"),
     ("classes", 10**20, "classes must be in [1,1000], got 100000000000000000000")],
    ids=["seed-x", "seed-1.5", "seed-True", "seed--1", "n_videos--1", "n_videos-2.0",
         "segments-0", "classes-4", "dim-False", "dim-8193", "classes-1e20"],
)
def test_spec_integer_fields_are_checked(field, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        small_spec(**{field: value}).validate()
    small_spec(**{field: np.int64(3)}).validate()


@pytest.mark.parametrize(
    "field, value, message",
    [("noise_sigma", float("nan"), "noise_sigma must be >= 0, got nan"),
     ("event_rate", float("nan"), "event_rate must be >= 0, got nan"),
     ("p_audio_only", float("nan"), "p_audio_only must be in [0,1], got nan"),
     ("leak", float("nan"), "leak must be in [0,1], got nan"),
     ("noise_sigma", float("inf"), "noise_sigma must be finite, got inf"),
     ("p_visual_only", "0.3", "p_visual_only must be a number, got '0.3'"),
     ("leak", True, "leak must be a number, got True"),
     ("leak", 10**400, f"leak must be in [0,1], got {10**400}"),
     ("event_rate", -(10**400), f"event_rate must be >= 0, got {-(10**400)}")],
    ids=["noise_sigma-nan", "event_rate-nan", "p_audio_only-nan", "leak-nan", "noise_sigma-inf",
         "p_visual_only-0.3", "leak-True", "leak-int-too-large", "event_rate-negative-int-too-large"],
)
def test_spec_float_fields_must_be_finite_numbers(field, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        small_spec(**{field: value}).validate()


def test_spec_cooccur_boosts_must_be_finite():
    boosts = np.ones((4, 4)) - np.eye(4)
    small_spec(cooccur=boosts).validate()
    with pytest.raises(ConfigError, match="cooccur boosts must be finite and non-negative"):
        small_spec(cooccur=np.where(boosts > 0, np.inf, 0.0)).validate()


def test_records_compare_by_value_and_type():
    def make():
        return generate_corpus(small_spec(n_videos=2, cooccur=np.ones((4, 4)) - np.eye(4)))

    a, b = make(), make()
    pairs = [(a, b), (a.spec, b.spec), (a.samples[0], b.samples[0]), (a.samples[0].gt, b.samples[0].gt)]
    for x, y in pairs:
        assert x is not y and x == y and not x != y
    # another type is never equal, in either order
    gt = a.samples[0].gt
    for x, other in [(a, a.samples), (a.spec, a.spec.to_mapping()), (a.samples[0], gt),
                     (gt, (gt.audio, gt.visual))]:
        assert x != other and other != x
    # None against an array, in either order, and a differing array
    for record, name in [(a, "prototypes_audio"), (a.spec, "cooccur"), (a.samples[0], "gt")]:
        cleared = dataclasses.replace(record, **{name: None})
        assert cleared != record and record != cleared
    assert dataclasses.replace(a.spec, cooccur=2 * a.spec.cooccur) != a.spec
    assert BinaryParse(gt.audio, 1 - gt.visual) != gt


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "all-blank"])
def test_a_corpus_file_without_a_header_names_line_1(tmp_path, text):
    path = tmp_path / "c.jsonl"
    path.write_text(text)
    with pytest.raises(FileFormatError, match=f"^{re.escape(f'{path}:1: empty file, expected a header object')}$"):
        load_corpus(path)


@pytest.mark.parametrize(
    "cooccur, message",
    [(np.zeros((3, 3)), "cooccur must be 4x4, got (3, 3)"),
     (np.triu(np.ones((4, 4)), 1), "cooccur must be symmetric")],
    ids=["another-shape", "asymmetric"],
)
def test_spec_rejects_a_cooccur_that_is_not_a_symmetric_c_by_c_matrix(cooccur, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        small_spec(cooccur=cooccur).validate()
