"""Training loop, configuration, prediction export, and the ablation runner."""
from __future__ import annotations

import dataclasses
import json
import os
import time
import typing
from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .branches import (
    BranchParams,
    VideoSample,
    anchor_forward,
    init_branch_params,
    param_layout,
    reference_forward,
)
from .errors import ConfigError, DivergenceError, FileFormatError
from .losses import (
    LossBundle,
    anchor_modality_video_probs,
    cooccurrence_kd,
    distil_pseudo_labels,
    # unused here: the one-video form of _modality_nce, which perfbench's
    # tracer hooks by this name
    event_aware_nce,
    _modality_nce,
    self_modality_kd,
    total_loss,
    unalignment_weights,
    video_loss_anchor,
    video_loss_reference,
)
from .metrics import MetricReport, confusion_rates, full_report, parse_threshold
from .numerics import Tensor

SEED_ENV_VAR = "COLEAF_SEED"
# a predict forward's graph holds about 0.75 MB per video at T=10, D=256, C=25
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
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 5e-3
    lr_decay_factor: float = 1.0
    lr_decay_every_epochs: int = 6
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    pseudo_threshold: float = 0.5  # theta for pseudo-label distillation
    nce_temperature: float = 0.2  # tau
    lambda_evt: float = 1.0
    lambda_kd: float = 1.0
    lambda_cls: float = 1.0
    warmup_epochs: int = 0  # epochs with only the video-level losses
    include_positive_in_nce: bool = False
    unimodal_only: bool = False
    disable_ref_video: bool = False
    disable_anchor_video: bool = False
    disable_event_contrastive: bool = False
    disable_self_modality_kd: bool = False
    disable_cooccurrence_kd: bool = False
    disable_class_tokens: bool = False
    seed: int = 0
    eval_threshold: float | tuple = 0.5

    def validate(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ConfigError(f"lr_decay_factor must be in (0,1], got {self.lr_decay_factor}")
        if self.lr_decay_every_epochs < 1:
            raise ConfigError("lr_decay_every_epochs must be >= 1")
        if not 0.0 < self.pseudo_threshold < 1.0:
            raise ConfigError(f"pseudo_threshold must be in (0,1), got {self.pseudo_threshold}")
        if self.nce_temperature <= 0:
            raise ConfigError(f"nce_temperature must be positive, got {self.nce_temperature}")
        for name in ("lambda_evt", "lambda_kd", "lambda_cls"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.warmup_epochs < 0:
            raise ConfigError("warmup_epochs must be >= 0")
        parse_threshold(self.eval_threshold)

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


_FIELD_TYPES = typing.get_type_hints(TrainConfig)


def _coerce_config_value(key, raw):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key}")
    if key == "eval_threshold":
        return parse_threshold(raw)
    kind = _FIELD_TYPES[key]
    if kind is bool:
        if isinstance(raw, bool):
            return raw
        text = str(raw).strip().lower()
        if text in ("true", "1", "yes", "on"):
            return True
        if text in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key} expects a boolean, got {raw!r}")
    try:
        return kind(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} expects {kind.__name__}, got {raw!r}") from None


def load_train_config(path):
    """Parse a flat `key = value` config file; unknown keys are an error.

    An unknown key or a value of the wrong type is reported with its line.
    """
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {text!r}")
            key, _, value = text.partition("=")
            key = key.strip()
            try:
                mapping[key] = _coerce_config_value(key, value.strip())
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
    # pseudo-labels are read off the forward values; only the anchor's
    # per-modality pooling builds graph nodes (2 per call) that no loss uses
    if collab and not config.disable_event_contrastive:
        probs = ref_out.video_probs.data
        pseudo_ref = distil_pseudo_labels(
            probs[..., 0, :], probs[..., 1, :], config.pseudo_threshold, source="reference"
        )
        weights = unalignment_weights(pseudo_ref)
        t = anchor_out.tokens.shape[-2]
        ref_tokens = ref_out.tokens.data[..., :t, :]  # constant teacher
        theta = np.stack([weights.theta_audio, weights.theta_visual], axis=-1)
        evt = _modality_nce(
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


def _check_one_shape(samples):
    """Every video must have the first video's T x D, so that a batch stacks into one block."""
    first = samples[0].audio_tokens.shape
    for sample in samples:
        if sample.audio_tokens.shape != first:
            raise ConfigError(
                f"video {sample.id} has T x D = {sample.audio_tokens.shape}, but the first "
                f"video {samples[0].id} has {first}; every video of a corpus needs the same T and D"
            )


def _train_step(batch, params, adam, lr, config, epoch, step):
    """One Adam step on the mean of a batch's per-video objectives.

    Returns the batch's loss components, one row per video. The batch's graph
    and gradients are freed on return, before the next batch builds its own.
    """
    totals, bundle = sample_losses(batch, params, config, epoch)
    # B x 6 in `LossBundle` field order; a disabled term is a plain 0.0
    rows = np.stack([np.broadcast_to(v, (len(batch),)) for v in vars(bundle).values()], axis=-1)
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
    samples = corpus.samples
    if not samples:
        raise ConfigError("training corpus is empty")
    _check_one_shape(samples)
    contrastive = not config.disable_event_contrastive and config.warmup_epochs < config.epochs
    first = samples[0]
    if contrastive and first.n_segments < 2:
        raise ConfigError(
            "the event contrastive loss needs at least 2 segments per video; "
            "set disable_event_contrastive = true to train on single-segment videos"
        )
    params = init_branch_params(first.dim, first.n_classes, config.seed)
    adam = AdamState(config.adam_beta1, config.adam_beta2, config.adam_eps)
    order_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
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
            report = evaluate(preds, eval_corpus, config.eval_threshold)
        losses = _mean_bundle(np.concatenate(rows))
        epoch_logs.append(EpochLog(losses=losses, learning_rate=lr, metrics=report))
    log = TrainLog(
        epochs=epoch_logs,
        seed=config.seed,
        config=config.to_mapping(),
        wall_clock_seconds=time.perf_counter() - start,
    )
    return params, log


def predict(params, corpus, branch="anchor", unimodal_only=False, out_path=None):
    """Segment-level probabilities per video from the chosen branch.

    Videos must share T x D. They run as forwards over blocks of
    `PREDICT_BLOCK_VIDEOS`, so memory stays bounded on a large corpus. The
    anchor branch is the deployment default; the reference branch is never
    touched on that path.
    """
    if branch not in ("anchor", "reference"):
        raise ConfigError(f"unknown branch {branch!r}")
    samples = corpus.samples
    if samples:
        _check_one_shape(samples)  # over the corpus; a forward sees one block
    preds = {}
    for lo in range(0, len(samples), PREDICT_BLOCK_VIDEOS):
        block = samples[lo : lo + PREDICT_BLOCK_VIDEOS]
        if branch == "anchor":
            out = anchor_forward(block, params, unimodal_only=unimodal_only)
            probs = np.swapaxes(out.seg_probs.data, -3, -2)  # B x T x 2 x C to B x 2 x T x C
        else:
            probs = reference_forward(block, params).seg_probs.data
        preds.update((sample.id, tuple(video)) for sample, video in zip(block, probs))
    if out_path is not None:
        write_predictions(preds, out_path)
    return preds


def write_predictions(preds, path):
    with open(path, "w", encoding="utf-8") as fh:
        for vid in preds:
            pa, pv = preds[vid]
            fh.write(
                json.dumps({"id": vid, "probs_audio": pa.tolist(), "probs_visual": pv.tolist()})
                + "\n"
            )


def load_predictions(path):
    """Read a file written by `write_predictions`.

    Each line must hold two T x C matrices of one shape with every value in
    [0,1]; anything else is a `FileFormatError` naming the line.
    """
    preds = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                raise FileFormatError(f"{path}:{line_no}: {err.msg}") from err
            if not isinstance(rec, dict):
                raise FileFormatError(f"{path}:{line_no}: expected a JSON object")
            for key in ("id", "probs_audio", "probs_visual"):
                if key not in rec:
                    raise FileFormatError(f"{path}:{line_no}: missing key {key}")
            try:
                pa = np.asarray(rec["probs_audio"], dtype=np.float64)
                pv = np.asarray(rec["probs_visual"], dtype=np.float64)
            except (TypeError, ValueError) as err:
                raise FileFormatError(f"{path}:{line_no}: {err}") from err
            if pa.ndim != 2 or pa.shape != pv.shape:
                raise FileFormatError(
                    f"{path}:{line_no}: probs_audio and probs_visual must be T x C matrices "
                    f"of one shape, got {pa.shape} and {pv.shape}"
                )
            for key, probs in (("probs_audio", pa), ("probs_visual", pv)):
                # NaN fails both comparisons, so it is rejected too
                if not np.all((probs >= 0.0) & (probs <= 1.0)):
                    raise FileFormatError(
                        f"{path}:{line_no}: {key} has a non-finite value or one outside [0,1]"
                    )
            preds[rec["id"]] = (pa, pv)
    return preds


def gt_parses(corpus):
    """Each video's ground-truth parse by id; every video must carry one."""
    for sample in corpus.samples:
        if sample.gt is None:
            raise ConfigError(f"video {sample.id} has no segment ground truth")
    return {sample.id: sample.gt for sample in corpus.samples}


def evaluate(preds, corpus, threshold=0.5, metric_config=None):
    return full_report(preds, gt_parses(corpus), thresholds=threshold, config=metric_config)


def save_params(params, path):
    payload = {
        "dim": params.dim,
        "n_classes": params.n_classes,
        "values": {name: t.data.tolist() for name, t in params.named_parameters()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_params(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as err:
            raise FileFormatError(f"{path}:{err.lineno}: {err.msg}") from err
    for key in ("dim", "n_classes", "values"):
        if key not in payload:
            raise FileFormatError(f"{path}:1: missing key {key}")
    dim, n_classes, values = payload["dim"], payload["n_classes"], payload["values"]
    if any(type(n) is not int or n < 1 for n in (dim, n_classes)):
        raise FileFormatError(f"{path}:1: dim and n_classes must be positive integers")
    layout = param_layout(dim, n_classes)
    names = {name for name, _ in layout}
    extra = sorted(set(values) - names)
    missing = sorted(names - set(values))
    if extra or missing:
        raise FileFormatError(
            f"{path}:1: parameter names do not match (missing {missing}, extra {extra})"
        )
    pieces = []
    for name, shape in layout:
        try:
            value = np.asarray(values[name], dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise FileFormatError(f"{path}:1: parameter {name}: {err}") from err
        if value.shape != shape:
            raise FileFormatError(
                f"{path}:1: parameter {name} has shape {value.shape}, expected {shape}"
            )
        pieces.append(value.reshape(-1))
    return BranchParams(dim, n_classes, np.concatenate(pieces))


@dataclass
class AblationRow:
    label: str
    overrides: dict
    report: MetricReport
    rates: dict  # event type -> {"TP": ..., "TN": ..., "FP": ..., "FN": ...}


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
    variants = [("base", {})]
    if axes:
        variants = [
            (f"{axis}={'on' if value else 'off'}", {axis: value})
            for axis in axes
            for value in (False, True)
        ]
    rows = []
    gts = gt_parses(eval_corpus)
    for label, overrides in variants:
        cfg = replace(base_config, **overrides)
        params, _ = train(corpus, cfg)
        preds = predict(params, eval_corpus, unimodal_only=cfg.unimodal_only)
        report = full_report(preds, gts, thresholds=cfg.eval_threshold)
        rates = confusion_rates(preds, gts, thresholds=cfg.eval_threshold)
        rows.append(AblationRow(label=label, overrides=overrides, report=report, rates=rates))
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
