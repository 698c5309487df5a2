"""Weakly supervised audio-visual video parsing with two collaborating branches."""

from .branches import (
    AnchorOutput,
    BranchParams,
    ReferenceOutput,
    anchor_forward,
    init_branch_params,
    instrumentation,
    reference_forward,
)
from .harness import TrainConfig, TrainLog, ablate, evaluate, predict, split_corpus, train
from .losses import (
    LossBundle,
    PseudoLabels,
    UnalignmentWeights,
    class_correlation,
    cooccurrence_kd,
    distil_pseudo_labels,
    event_aware_nce,
    self_modality_kd,
    total_loss,
    unalignment_weights,
    video_loss_anchor,
    video_loss_reference,
)
from .metrics import (
    ExclusiveParse,
    MetricConfig,
    MetricReport,
    derive_exclusive,
    full_report,
)
from .numerics import Tensor, attention, backward, bce, matmul, sigmoid, softmax
from .records import BinaryParse, VideoSample
from .synthdata import (
    CorpusSpec,
    GeneratedCorpus,
    generate_corpus,
    load_corpus,
    save_corpus,
    weak_labels_from_temporal,
)

__version__ = "0.1.0"
