"""Hierarchical sequence embedding for paired video/paragraph data.

Two-level GRU encoders embed clips/sentences and whole videos/paragraphs
into shared semantic spaces, trained with margin ranking, within-modality
separation, and layer-wise reconstruction losses, and evaluated by
cross-modal retrieval and zero-shot label transfer.
"""

from .data import (
    Corpus,
    ParagraphSample,
    SynthSpec,
    VideoSample,
    load_checkpoint,
    load_corpus,
    save_checkpoint,
    save_corpus,
    synth_generate,
)
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    CorpusError,
    DegenerateInputError,
    HseError,
    LabelsError,
    ShapeError,
    TrainingDiverged,
)
from .evaluation import (
    RetrievalReport,
    ZeroShotReport,
    evaluate_retrieval,
    median_rank,
    rank_matrix,
    recall_at_k,
    zeroshot_classify,
)
from .losses import LossBreakdown, LossConfig, avg_match, total_loss
from .model import (
    GruParams,
    HseModelParams,
    ModelDims,
    decode_batch,
    encode_batch,
)
from .tensorkit import Tape, Tensor, backward, finite_diff_check
from .training import TrainConfig, TrainResult, init_params, lr_at_epoch, train

__version__ = "0.1.0"
