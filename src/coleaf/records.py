"""The input rules and the two input records, at the bottom of the import graph.

The field-rule table that `TrainConfig` and `CorpusSpec` are checked against,
the 0/1, probability and threshold rules, the shared record `__eq__`, and
`BinaryParse` and `VideoSample` with their one-video and stacked-block checks.
Only `errors` is imported here, so every other module can take its rules from here.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
import typing
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DimensionError

# videos per array pass in `full_report`, per stacked record check in the corpus and
# prediction file readers and per assembled block in `synthdata.generate_corpus`;
# bounds the memory one pass takes
SCORE_BLOCK_VIDEOS = 128


def as_binary(values, what):
    """`values` as int64, rejecting anything but 0 and 1 before the cast could truncate it."""
    values = np.asarray(values)
    if values.dtype.kind in "biu":  # two reductions are cheaper than the elementwise test
        ok = values.size == 0 or (values.min() >= 0 and values.max() <= 1)
    else:  # a float such as 0.5 lies inside [0, 1] but is not 0 or 1
        ok = np.all((values == 0) | (values == 1))
    if not ok:
        raise ValueError(f"{what} must hold only 0 and 1")
    return values.astype(np.int64)


def as_float(value):
    """The real number `value` as a float; an integer too large for one is infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# each field type's words in `check_fields`' messages and the classes that pass as it;
# a bool is not a number here
_KINDS = {bool: ("true or false", (bool, np.bool_)), int: ("an integer", numbers.Integral),
          float: ("a number", numbers.Real)}
_BRACKETS = {"[": operator.ge, "(": operator.gt, "]": operator.le, ")": operator.lt}


def _rule_test(rule):
    """The test that a field's rule states: `positive`, `>= k`, or `in` an interval such as
    `[0,1)`. Each is a comparison that only a number in range passes, so NaN fails it."""
    if rule == "positive":
        return lambda x: x > 0
    if rule.startswith(">= "):
        return functools.partial(operator.le, float(rule[3:]))  # low <= x
    low, high = map(float, rule[4:-1].split(","))
    above, below = _BRACKETS[rule[3]], _BRACKETS[rule[-1]]
    return lambda x: above(x, low) and below(x, high)


@functools.cache
def field_rules(cls):
    """The bool, int and float fields of dataclass `cls` as name -> (type, rule, test), read
    once per class from annotations such as `Annotated[int, ">= 1"]` into one dict that all
    callers share and none may change. A plain bool has no rule; other types are left out."""
    rules = {}
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        kind, rule = typing.get_args(hint) if typing.get_origin(hint) is typing.Annotated else (hint, None)
        if kind in _KINDS:
            rules[name] = (kind, rule, rule and _rule_test(rule))
    return rules


def kind_error(name, kind, value):
    return ConfigError(f"{name} must be {_KINDS[kind][0]}, got {value!r}")


def check_fields(record):
    """`check_field` of each field that `field_rules` lists for `record`; a `ConfigError`
    names the first field that fails."""
    for name in field_rules(type(record)):
        check_field(type(record), name, getattr(record, name))


def check_field(cls, name, value):
    """Check `value` for the field `name` of dataclass `cls`: its type, then its rule (an
    integer too large for a float is infinite there), then, for a float, that it is finite."""
    kind, rule, test = field_rules(cls)[name]
    if not isinstance(value, _KINDS[kind][1]) or (kind is not bool and isinstance(value, bool)):
        raise kind_error(name, kind, value)
    if rule and not test(as_float(value)):
        raise ConfigError(f"{name} must be {rule}, got {value}")
    if kind is float and not math.isfinite(number := as_float(value)):
        raise ConfigError(f"{name} must be finite, got {number}")


def matrix_pair(a, b, lead, what):
    """Raise `DimensionError`, `what` and both shapes, unless arrays `a` and `b` share one
    shape: `lead`, the leading axes of a stack of records, then two matrix axes."""
    if not (a.shape == b.shape and a.ndim == len(lead) + 2 and a.shape[:-2] == lead):
        raise DimensionError(f"{what}, got {_own(a.shape, lead)} and {_own(b.shape, lead)}")


def _own(shape, lead):
    """The shape of each record in a stack of `shape` whose leading axes are `lead`, so a
    fault reads as it does for one record; `shape` itself if the stack lacks them."""
    return shape[len(lead):] if shape[: len(lead)] == lead else shape


def unchecked(cls, **fields):
    """A `cls` record holding `fields` as given, without running its `__post_init__`: for
    arrays that have already passed its checks as part of a stacked block.

    Fields are set one at a time, as `__init__` sets them, so the record keeps the
    compact attribute table its class's instances share.
    """
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


def record_eq(self, other):
    """`==` for dataclass records with array fields: records of one type are equal when
    their array fields are `np.array_equal` (None against an array is unequal) and
    every other field is `==`."""
    if type(other) is not type(self):
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            if not np.array_equal(a, b):
                return False
        elif a != b:
            return False
    return True


@dataclass(eq=False)
class BinaryParse:
    audio: np.ndarray  # T x C in {0,1}
    visual: np.ndarray

    def __post_init__(self):
        self.audio, self.visual = binary_pair(self.audio, self.visual)

    __eq__ = record_eq


def binary_pair(audio, visual, *, lead=()):
    """The one check on a parse: two T x C matrices of 0 and 1 of one shape, as int64; with
    `lead`, two `lead` x T x C stacks of them."""
    audio = as_binary(audio, "audio parse")
    visual = as_binary(visual, "visual parse")
    matrix_pair(audio, visual, lead, "parse matrices must share T x C")
    return audio, visual


def check_threshold(threshold, n_classes):
    """`threshold`, one value or one per class, as a 1-D float array; each value must be a
    number strictly inside (0,1), and an integer too large for a float is infinite."""
    try:
        arr = np.atleast_1d(np.asarray(threshold, dtype=object))
        arr = np.frompyfunc(as_float, 1, 1)(arr).astype(np.float64)
    except (TypeError, ValueError):
        raise ConfigError(f"threshold must be a number or comma list, got {threshold!r}") from None
    if arr.ndim != 1 or arr.shape[0] not in (1, n_classes):
        raise ConfigError(f"threshold must be a scalar or one value per class, got shape {arr.shape}")
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ConfigError(f"thresholds must lie strictly inside (0,1), got {arr}")
    return arr


def parse_threshold(raw):
    """One threshold, or one per class as a sequence or comma-separated text.

    Returns a float for a single value and a tuple otherwise; every value
    must lie strictly inside (0,1).
    """
    if isinstance(raw, str) and "," in raw:
        raw = raw.split(",")
    per_class = isinstance(raw, (list, tuple))
    arr = check_threshold(raw, len(raw) if per_class else 1)
    return tuple(arr.tolist()) if per_class else float(arr[0])


def probability_pair(probs_audio, probs_visual, *, lead=()):
    """The one check on a video's probabilities: two T x C float matrices of one shape,
    every value finite and inside [0,1]; with `lead`, two `lead` x T x C stacks of them."""
    pa = np.asarray(probs_audio, dtype=np.float64)
    pv = np.asarray(probs_visual, dtype=np.float64)
    matrix_pair(pa, pv, lead, "probability matrices must share T x C")
    for name, probs in (("audio", pa), ("visual", pv)):
        # min and max carry a NaN through, and NaN fails both comparisons, so it is rejected too
        if probs.size and not (probs.min() >= 0.0 and probs.max() <= 1.0):
            raise ValueError(f"{name} probabilities hold a non-finite value or one outside [0,1]")
    return pa, pv


@dataclass(eq=False)
class VideoSample:
    id: str
    audio_tokens: np.ndarray  # T x D
    visual_tokens: np.ndarray  # T x D
    weak_label: np.ndarray  # C in {0,1}, modality-agnostic
    gt: BinaryParse | None = None

    def __post_init__(self):
        gt_audio = None if self.gt is None else self.gt.audio
        self.audio_tokens, self.visual_tokens, self.weak_label = _video_fields(
            self.audio_tokens, self.visual_tokens, self.weak_label, gt_audio
        )

    @classmethod
    def from_block(cls, ids, audio_tokens, visual_tokens, weak_labels, gt_audio=None, gt_visual=None):
        """One video per id from fields stacked along a leading video axis: B x T x D
        tokens, B x C weak labels and, when `gt_audio` is given, B x T x C ground truth.

        `__post_init__`'s rules run once over the whole stacks, and each video's
        arrays are views into them.
        """
        lead = (len(ids),)
        gts = [None] * len(ids)
        if gt_audio is not None:
            gt_audio, gt_visual = binary_pair(gt_audio, gt_visual, lead=lead)
            gts = [unchecked(BinaryParse, audio=a, visual=v) for a, v in zip(gt_audio, gt_visual)]
        audio, visual, weak = _video_fields(audio_tokens, visual_tokens, weak_labels, gt_audio, lead=lead)
        return [
            unchecked(cls, id=i, audio_tokens=a, visual_tokens=v, weak_label=w, gt=g)
            for i, a, v, w, g in zip(ids, audio, visual, weak, gts)
        ]

    @property
    def n_segments(self):
        return self.audio_tokens.shape[0]

    @property
    def dim(self):
        return self.audio_tokens.shape[1]

    @property
    def n_classes(self):
        return self.weak_label.shape[0]

    __eq__ = record_eq


def _video_fields(audio_tokens, visual_tokens, weak_label, gt_audio=None, *, lead=()):
    """The one check on a video: finite token matrices of one T x D, a weak label of C
    values in {0,1} and, if given, the audio matrix of its checked parse, of T x C; with
    `lead`, `lead` x ... stacks of them. Returns the tokens as float64 and the weak label
    as int64."""
    audio = np.asarray(audio_tokens, dtype=np.float64)
    visual = np.asarray(visual_tokens, dtype=np.float64)
    weak = as_binary(weak_label, "weak label")
    matrix_pair(audio, visual, lead, "token matrices must share T x D")
    if not (np.isfinite(audio).all() and np.isfinite(visual).all()):
        raise ValueError("tokens must be finite")
    if weak.ndim != len(lead) + 1 or weak.shape[:-1] != lead:
        axes = [] if weak.shape[: len(lead)] == lead else [*map(str, lead)]  # a stack of another length
        raise DimensionError(f"weak labels must be {' x '.join([*axes, 'C'])}, got {_own(weak.shape, lead)}")
    expect = (*audio.shape[len(lead):-1], weak.shape[-1])
    if gt_audio is not None and gt_audio.shape[len(lead):] != expect:
        raise DimensionError(f"ground truth shape {gt_audio.shape[len(lead):]}, expected {expect}")
    return audio, visual, weak
