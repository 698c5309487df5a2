"""Training loop, configuration, prediction export, and the ablation runner."""
from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, replace
from typing import Annotated

import numpy as np

from . import numerics as nm
from .branches import (
    BranchParams,
    anchor_forward,
    init_branch_params,
    param_layout,
    reference_forward,
)
from .errors import ConfigError, DivergenceError, FileFormatError
from .fileio import json_lines, parse_record, read_records, stack_payloads, write_json_lines
from .losses import (
    LossBundle,
    anchor_modality_video_probs,
    cooccurrence_kd,
    distil_pseudo_labels,
    # unused here: the one-video form of modality_nce, which perfbench's
    # tracer hooks by this name
    event_aware_nce,
    modality_nce,
    self_modality_kd,
    total_loss,
    unalignment_weights,
    video_loss_anchor,
    video_loss_reference,
)
from .metrics import MetricReport, full_report
from .numerics import Tensor
from .records import (
    VideoSample,
    check_field,
    check_fields,
    check_threshold,
    field_rules,
    kind_error,
    parse_threshold,
    probability_pair,
)
from .synthdata import corpus_shape

SEED_ENV_VAR = "COLEAF_SEED"
# one pool-free anchor forward of a 64-video block peaks at about 0.75 MB per video at
# T=10, D=256, C=25 and 52 KB at T=10, D=16, C=5 (tracemalloc); smaller blocks cost more
# per video. With one block's graph alive at a time, a 100-video desk shard predicts
# without minor page faults once the heap has grown (getrusage); blocks of 100 or 128
# took about 530 faults per shard and 25% longer
PREDICT_BLOCK_VIDEOS = 64

ABLATION_AXES = (
    "unimodal_only",
    "disable_ref_video",
    "disable_anchor_video",
    "disable_event_contrastive",
    "disable_self_modality_kd",
    "disable_cooccurrence_kd",
    "disable_class_tokens",
)


@dataclass
class TrainConfig:
    epochs: Annotated[int, ">= 1"] = 30
    batch_size: Annotated[int, ">= 1"] = 16
    learning_rate: Annotated[float, ">= 0"] = 5e-3
    lr_decay_factor: Annotated[float, "in (0,1]"] = 1.0
    lr_decay_every_epochs: Annotated[int, ">= 1"] = 6
    adam_beta1: Annotated[float, "in [0,1)"] = 0.9
    adam_beta2: Annotated[float, "in [0,1)"] = 0.999
    adam_eps: Annotated[float, "positive"] = 1e-8
    pseudo_threshold: Annotated[float, "in (0,1)"] = 0.5  # theta for pseudo-label distillation
    nce_temperature: Annotated[float, "positive"] = 0.2  # tau
    lambda_evt: Annotated[float, ">= 0"] = 1.0
    lambda_kd: Annotated[float, ">= 0"] = 1.0
    lambda_cls: Annotated[float, ">= 0"] = 1.0
    warmup_epochs: Annotated[int, ">= 0"] = 0  # epochs with only the video-level losses
    include_positive_in_nce: bool = False
    unimodal_only: bool = False
    disable_ref_video: bool = False
    disable_anchor_video: bool = False
    disable_event_contrastive: bool = False
    disable_self_modality_kd: bool = False
    disable_cooccurrence_kd: bool = False
    disable_class_tokens: bool = False
    seed: Annotated[int, ">= 0"] = 0
    eval_threshold: float | tuple = 0.5

    def validate(self):
        """Check each field against its annotation (`records.check_fields`), and
        `eval_threshold` (`records.parse_threshold`), and that some loss term trains in
        some epoch; raise `ConfigError` at the first fault."""
        check_fields(self)
        parse_threshold(self.eval_threshold)
        if self.disable_ref_video and self.disable_anchor_video:
            collab = ("disable_event_contrastive", "disable_self_modality_kd", "disable_cooccurrence_kd")
            if all(getattr(self, name) for name in collab):
                raise ConfigError("every loss term is disabled, so training would change nothing")
            if self.warmup_epochs >= self.epochs:
                raise ConfigError(
                    f"both video-level losses are disabled and warmup_epochs {self.warmup_epochs} "
                    f">= epochs {self.epochs}, so training would change nothing"
                )

    @classmethod
    def fullscale(cls, **overrides):
        """Settings used for full-scale training runs on real feature corpora."""
        base = dict(
            epochs=15,
            batch_size=128,
            learning_rate=5e-4,
            lr_decay_factor=0.25,
            lr_decay_every_epochs=6,
        )
        base.update(overrides)
        return cls(**base)

    def to_mapping(self):
        out = dataclasses.asdict(self)
        if isinstance(out["eval_threshold"], tuple):
            out["eval_threshold"] = list(out["eval_threshold"])
        return out

    @classmethod
    def from_mapping(cls, mapping):
        cfg = cls(**{key: _coerce_config_value(key, raw) for key, raw in mapping.items()})
        cfg.validate()
        return cfg


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}


def _coerce_config_value(key, raw):
    """A config file's text for `key` as its field's type; other values are `validate`'s."""
    if key == "eval_threshold":
        return parse_threshold(raw)
    rules = field_rules(TrainConfig)
    if key not in rules:
        raise ConfigError(f"unknown config key {key}")
    kind = rules[key][0]
    if not isinstance(raw, str):
        return raw
    try:
        return _BOOL_WORDS[raw.strip().lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise kind_error(key, kind, raw) from None


def load_train_config(path):
    """Parse a flat `key = value` config file; unknown keys are an error.

    The file is UTF-8 text, with or without a BOM. A byte that is not UTF-8, an unknown
    or repeated key, a value of the wrong type and a value outside its field's rule (in
    the words of `records.check_field`) are reported at their line, as
    `<path>:<line>: <fault>`; a rule across fields is `validate`'s, without a line.
    """
    mapping, first_lines = {}, {}
    # a byte that is not UTF-8 reads as a lone surrogate, which no UTF-8 text holds
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ConfigError(f"{path}:{line_no}: not UTF-8 text") from None
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {text!r}")
            key, _, value = text.partition("=")
            key = key.strip()
            if key in first_lines:
                raise ConfigError(f"{path}:{line_no}: {key} repeats line {first_lines[key]}")
            first_lines[key] = line_no
            try:
                mapping[key] = _coerce_config_value(key, value.strip())
                if key != "eval_threshold":  # whose rule `_coerce_config_value` has checked
                    check_field(TrainConfig, key, mapping[key])
            except ConfigError as err:
                raise ConfigError(f"{path}:{line_no}: {err}") from None
    return TrainConfig.from_mapping(mapping)


def apply_env_seed(config):
    """Return the config with its seed overridden by COLEAF_SEED when set."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return config
    try:
        seed = int(raw)
    except ValueError as err:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from err
    return replace(config, seed=seed)


@dataclass
class EpochLog:
    losses: LossBundle
    learning_rate: float
    metrics: MetricReport | None = None


@dataclass
class TrainLog:
    epochs: list
    seed: int
    config: dict
    wall_clock_seconds: float

    def to_mapping(self, include_wall_clock=True):
        out = {
            "seed": self.seed,
            "config": self.config,
            "epochs": [
                {
                    "losses": dataclasses.asdict(e.losses),
                    "learning_rate": e.learning_rate,
                    "metrics": None if e.metrics is None else e.metrics.as_dict(),
                }
                for e in self.epochs
            ],
        }
        if include_wall_clock:
            out["wall_clock_seconds"] = self.wall_clock_seconds
        return out


class AdamState:
    """First/second moment vectors laid out like `BranchParams.flat`."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        # zero moments; the first step broadcasts them to the vector's length
        self.m = 0.0
        self.v = 0.0

    def step(self, params, grads, lr):
        """One update of `params.flat` in place from `backward`'s gradients."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        g = params.flat_grad(grads)
        self.m = b1 * self.m + (1.0 - b1) * g
        self.v = b2 * self.v + (1.0 - b2) * g * g
        m_hat = self.m / (1.0 - b1**self.t)
        v_hat = self.v / (1.0 - b2**self.t)
        params.flat -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


def sample_losses(videos, params, config, epoch=0):
    """Forward both branches and assemble the weighted objective.

    `videos` is one `VideoSample`, which gives scalar losses, or a sequence
    of B videos, which run as one graph and give one value per video in the
    total and in every field of the component record.
    """
    single = isinstance(videos, VideoSample)
    ref_out = reference_forward(videos, params, use_class_tokens=not config.disable_class_tokens)
    anchor_out = anchor_forward(videos, params, unimodal_only=config.unimodal_only)
    y = videos.weak_label if single else np.array([s.weak_label for s in videos])
    ref_video = 0.0 if config.disable_ref_video else video_loss_reference(ref_out, y)
    anchor_video = 0.0 if config.disable_anchor_video else video_loss_anchor(anchor_out, y)
    collab = epoch >= config.warmup_epochs
    evt = kd = cls = 0.0
    # pseudo-labels are read off the forward values; the anchor's per-modality
    # pooling is built once per output, and `cooccurrence_kd` reuses it
    if collab and not config.disable_event_contrastive:
        probs = ref_out.video_probs.data
        pseudo_ref = distil_pseudo_labels(
            probs[..., 0, :], probs[..., 1, :], config.pseudo_threshold, source="reference"
        )
        weights = unalignment_weights(pseudo_ref)
        t = anchor_out.tokens.shape[-2]
        ref_tokens = ref_out.tokens.data[..., :t, :]  # constant teacher
        theta = np.stack([weights.theta_audio, weights.theta_visual], axis=-1)
        evt = modality_nce(
            anchor_out.tokens,
            ref_tokens,
            theta,
            tau=config.nce_temperature,
            include_positive=config.include_positive_in_nce,
        )
    if collab and not config.disable_self_modality_kd:
        probs = anchor_modality_video_probs(anchor_out).data
        pseudo_anchor = distil_pseudo_labels(
            probs[..., 0, :], probs[..., 1, :], config.pseudo_threshold, source="anchor"
        )
        kd = self_modality_kd(pseudo_anchor, ref_out)
    if collab and not config.disable_cooccurrence_kd:
        cls = cooccurrence_kd(ref_out, anchor_out)
    return total_loss(
        ref_video,
        anchor_video,
        evt,
        kd,
        cls,
        lambda_evt=config.lambda_evt,
        lambda_kd=config.lambda_kd,
        lambda_cls=config.lambda_cls,
    )


def _mean_bundle(rows):
    return LossBundle(*[float(x) for x in rows.mean(axis=0)])


def _nonempty_shape(corpus, role):
    """The (T, C, D) of a corpus that must hold at least one video."""
    if not corpus.samples:
        raise ConfigError(f"{role} corpus is empty")
    return corpus_shape(corpus)


def _check_eval_corpus(corpus, eval_corpus, threshold):
    """The corpus scored after training must be non-empty, share the training corpus's
    C and D and give every video ground truth, and a per-class threshold must have one
    value per class; checked before the first step rather than at the first evaluation.
    Returns the evaluation corpus's `gt_parses`."""
    _, c, d = _nonempty_shape(corpus, "training")
    _, eval_c, eval_d = _nonempty_shape(eval_corpus, "evaluation")
    if (eval_c, eval_d) != (c, d):
        raise ConfigError(
            f"evaluation corpus has C={eval_c}, D={eval_d}, training corpus has C={c}, D={d}"
        )
    check_threshold(threshold, c)
    return gt_parses(eval_corpus)


def _train_step(batch, params, adam, lr, config, epoch, step):
    """One Adam step on the mean of a batch's per-video objectives.

    Returns the batch's loss components, one row per video. The batch's graph
    and gradients are freed on return, before the next batch builds its own.
    """
    totals, bundle = sample_losses(batch, params, config, epoch)
    # B x 6 in `LossBundle` field order; a disabled term is a plain 0.0
    fields = vars(bundle).values()
    rows = np.empty((len(batch), len(fields)))
    for column, value in enumerate(fields):
        rows[:, column] = value
    grads = {}
    if isinstance(totals, Tensor):
        batch_loss = totals.mean()
        if not np.isfinite(batch_loss.data):
            raise DivergenceError(step, _mean_bundle(rows))
        grads = nm.backward(batch_loss)
    adam.step(params, grads, lr)
    return rows


def effective_lr(config, epoch):
    decays = epoch // config.lr_decay_every_epochs
    return config.learning_rate * config.lr_decay_factor**decays


def train(corpus, config, eval_corpus=None):
    """Train both branches jointly with Adam; deterministic given the seed.

    Returns the trained parameters and a per-epoch log of mean loss
    components (plus a metric report per epoch when `eval_corpus` is given).
    """
    config.validate()
    t, c, d = _nonempty_shape(corpus, "training")
    if eval_corpus is not None:
        gts = _check_eval_corpus(corpus, eval_corpus, config.eval_threshold)
    contrastive = not config.disable_event_contrastive and config.warmup_epochs < config.epochs
    if contrastive and t < 2:
        raise ConfigError(
            "the event contrastive loss needs at least 2 segments per video; "
            "set disable_event_contrastive = true to train on single-segment videos"
        )
    params = init_branch_params(d, c, config.seed)
    adam = AdamState(config.adam_beta1, config.adam_beta2, config.adam_eps)
    order_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    samples = corpus.samples
    start = time.perf_counter()
    epoch_logs = []
    step = 0
    for epoch in range(config.epochs):
        lr = effective_lr(config, epoch)
        perm = order_rng.permutation(len(samples))
        rows = []
        for lo in range(0, len(perm), config.batch_size):
            batch = [samples[i] for i in perm[lo : lo + config.batch_size]]
            rows.append(_train_step(batch, params, adam, lr, config, epoch, step))
            step += 1
        report = None
        if eval_corpus is not None:
            preds = predict(params, eval_corpus, unimodal_only=config.unimodal_only)
            report = full_report(preds, gts, thresholds=config.eval_threshold)
        losses = _mean_bundle(np.concatenate(rows))
        epoch_logs.append(EpochLog(losses=losses, learning_rate=lr, metrics=report))
    log = TrainLog(
        epochs=epoch_logs,
        seed=config.seed,
        config=config.to_mapping(),
        wall_clock_seconds=time.perf_counter() - start,
    )
    return params, log


def predict(params, corpus, branch="anchor", unimodal_only=False):
    """Segment-level probabilities per video from the chosen branch.

    Videos must share T, C and D. They run as forwards over blocks of
    `PREDICT_BLOCK_VIDEOS`, so memory stays bounded on a large corpus. The
    anchor branch is the deployment default; the reference branch is never
    touched on that path. `unimodal_only` applies to the anchor branch only.
    """
    if branch not in ("anchor", "reference"):
        raise ConfigError(f"unknown branch {branch!r}")
    if unimodal_only and branch != "anchor":
        raise ConfigError(f"unimodal_only applies to the anchor branch only, not the {branch} branch")
    corpus_shape(corpus)  # over the corpus; a forward sees one block
    samples = corpus.samples
    preds = {}
    for lo in range(0, len(samples), PREDICT_BLOCK_VIDEOS):
        block = samples[lo : lo + PREDICT_BLOCK_VIDEOS]
        probs = _block_seg_probs(block, params, branch, unimodal_only)
        preds.update((sample.id, tuple(video)) for sample, video in zip(block, probs))
    return preds


def _block_seg_probs(block, params, branch, unimodal_only):
    """B x 2 x T x C segment probabilities of one block. The forward's graph dies when
    this returns, before the next block's forward starts."""
    if branch == "anchor":
        out = anchor_forward(block, params, unimodal_only=unimodal_only, pool=False)
        return np.swapaxes(out.seg_probs.data, -3, -2)  # B x T x 2 x C to B x 2 x T x C
    return reference_forward(block, params).seg_probs.data


def write_predictions(preds, path):
    write_json_lines(
        path, ({"id": vid, "probs_audio": pa, "probs_visual": pv} for vid, (pa, pv) in preds.items())
    )


_PREDICTION_KEYS = ("id", "probs_audio", "probs_visual")


def load_predictions(path):
    """Read a file written by `write_predictions`.

    Each line must hold a unique string id and two T x C matrices of one
    shape with every value in [0,1]; anything else, a number too large for a
    float included, is a `FileFormatError` naming the line, the earliest
    faulty line of the file. The lines are read by `fileio.read_records`: a
    block's matrices are stacked and pass the probability rule once, and each
    pair is a view into its block's stacks.
    """
    pairs, _ = read_records(path, json_lines(path), _PREDICTION_KEYS, _PREDICTION_KEYS[1:], _prediction_block)
    return dict(pairs)


def _prediction_block(recs):
    """`(id, (probs_audio, probs_visual))` for each record of `recs`, whose stacked
    matrices pass `probability_pair` once."""
    pa, pv = probability_pair(
        stack_payloads([rec["probs_audio"] for rec in recs]),
        stack_payloads([rec["probs_visual"] for rec in recs]),
        lead=(len(recs),),
    )
    return zip([rec["id"] for rec in recs], zip(pa, pv))


def gt_parses(corpus):
    """Each video's ground-truth parse by id; every video must carry one."""
    for sample in corpus.samples:
        if sample.gt is None:
            raise ConfigError(f"video {sample.id} has no segment ground truth")
    return {sample.id: sample.gt for sample in corpus.samples}


def evaluate(preds, corpus, threshold=0.5):
    return full_report(preds, gt_parses(corpus), thresholds=threshold)


def save_params(params, path):
    """Write `params` as one JSON line, each problem's array a float64 payload."""
    values = dict(params.members)
    write_json_lines(path, [{"dim": params.dim, "n_classes": params.n_classes, "values": values}])


def load_params(path):
    """Read a `save_params` file, every value checked before the vector is allocated."""
    with open(path, "rb") as fh:
        payload = parse_record(fh.read(), ("dim", "n_classes", "values"), path)
    dim, n_classes, values = payload["dim"], payload["n_classes"], payload["values"]
    if any(type(n) is not int or n < 1 for n in (dim, n_classes)):
        raise FileFormatError(f"{path}:1: dim and n_classes must be positive integers")
    if not isinstance(values, dict):
        raise FileFormatError(f"{path}:1: values must be an object of parameter name to array")
    shapes = {member + part: shape for prefix, members, parts in param_layout(dim, n_classes)
              for member in members or (prefix,) for part, shape in parts}
    extra = sorted(set(values) - set(shapes))
    missing = sorted(set(shapes) - set(values))
    if extra or missing:
        raise FileFormatError(
            f"{path}:1: parameter names do not match (missing {missing}, extra {extra})"
        )
    checked = {}
    for name, shape in shapes.items():
        try:
            value = np.asarray(values[name], dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as err:
            raise FileFormatError(f"{path}:1: parameter {name}: {err}") from err
        if not np.isfinite(value).all():
            raise FileFormatError(f"{path}:1: parameter {name}: values must be finite")
        if value.shape != shape:
            raise FileFormatError(
                f"{path}:1: parameter {name} has shape {value.shape}, expected {shape}"
            )
        checked[name] = value
    params = BranchParams(dim, n_classes)
    for name, view in params.members:
        view[...] = checked[name]
    return params


@dataclass
class AblationRow:
    label: str
    overrides: dict
    report: MetricReport

    @property
    def rates(self):
        """Event type -> {"TP": ..., "TN": ..., "FP": ..., "FN": ...}, from the report."""
        return self.report.rates


def split_corpus(corpus, eval_fraction=0.2):
    """Deterministic tail split; both parts share the corpus's feature prototypes."""
    n_eval = max(1, int(round(len(corpus.samples) * eval_fraction)))
    return (
        replace(corpus, samples=corpus.samples[:-n_eval]),
        replace(corpus, samples=corpus.samples[-n_eval:]),
    )


def ablate(corpus, base_config, axes, eval_corpus=None):
    """Train one variant per axis setting with a shared seed and compare.

    Each axis is a boolean TrainConfig switch; every axis contributes an off
    row and an on row. With no axes the base configuration is the single row.
    Rows carry the exclusive metrics and segment-level confusion rates per
    event type.
    """
    for axis in axes:
        if axis not in ABLATION_AXES:
            raise ConfigError(f"unknown ablation axis {axis!r}; valid axes: {', '.join(ABLATION_AXES)}")
    if eval_corpus is None:
        corpus, eval_corpus = split_corpus(corpus)
    gts = _check_eval_corpus(corpus, eval_corpus, base_config.eval_threshold)
    variants = [("base", {})]
    if axes:
        variants = [
            (f"{axis}={'on' if value else 'off'}", {axis: value})
            for axis in axes
            for value in (False, True)
        ]
    configs = [replace(base_config, **overrides) for _, overrides in variants]
    for cfg in configs:  # before the first variant trains
        cfg.validate()
    rows = []
    # variants differ only in the axis switches, so these name a configuration;
    # an axis's off row is often the base, which is then trained once
    reports = {}
    for (label, overrides), cfg in zip(variants, configs):
        key = tuple(getattr(cfg, axis) for axis in ABLATION_AXES)
        if key not in reports:
            params, _ = train(corpus, cfg)
            preds = predict(params, eval_corpus, unimodal_only=cfg.unimodal_only)
            reports[key] = full_report(preds, gts, thresholds=cfg.eval_threshold)
        rows.append(AblationRow(label=label, overrides=overrides, report=reports[key]))
    return rows


def ablation_table_csv(rows):
    """Render ablation rows as CSV with a stable column order."""
    header = ["variant"]
    header += [f"seg_{k}" for k in ("Ao", "Vo", "AV")]
    header += [f"event_{k}" for k in ("Ao", "Vo", "AV")]
    for event_type in ("A", "V", "AV"):
        header += [f"{event_type}_{k}" for k in ("TP", "TN", "FP", "FN")]
    lines = [",".join(header)]
    for row in rows:
        seg = row.report.segment.as_dict()
        ev = row.report.event.as_dict()
        cells = [row.label]
        cells += [f"{seg[k]:.4f}" for k in ("Ao", "Vo", "AV")]
        cells += [f"{ev[k]:.4f}" for k in ("Ao", "Vo", "AV")]
        for event_type in ("A", "V", "AV"):
            cells += [f"{row.rates[event_type][k]:.4f}" for k in ("TP", "TN", "FP", "FN")]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
