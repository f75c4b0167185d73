"""Hierarchical sequence embedding for paired video/paragraph data.

Two-level GRU encoders embed clips/sentences and whole videos/paragraphs
into shared semantic spaces, trained with margin ranking, within-modality
separation, and layer-wise reconstruction losses, and evaluated by
cross-modal retrieval and zero-shot label transfer.
"""

from . import data, errors, evaluation, losses, model, tensorkit, training
