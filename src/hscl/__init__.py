"""Contrastive pre-training on scalar health scores.

Pre-trains a scan encoder by regressing the health score while contrasting
batch members mined by label distance, then trains a 3-way classifier that
reads consecutive-scan embedding pairs as improved / same / deteriorated.
"""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    Cohort,
    NormalizationStats,
    SyntheticSpec,
    categorize_sf,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_patients,
)
from .losses import LossConfig, MiningResult, cross_entropy, mine_batch
from .metrics import (
    MetricsReport,
    SpreadProfile,
    compute_metrics,
    embedding_spread,
    export_profile,
    spearman_rho,
)
from .model import (
    ClassifierHead,
    EncoderParams,
    RegressionHead,
    classify_pairs,
    encode,
    init_classifier_head,
    init_encoder,
    init_regression_head,
    predict_hs,
)
from .tensor import Tensor, backward
from .training import (
    AdamState,
    TrainConfig,
    adam_step,
    cosine_lr,
    embed_pairs,
    finetune,
    pretrain,
)

__version__ = "0.1.0"
