"""Bandwidth-constrained image retrieval from factor-loading descriptors.

A client compresses an image's stack of keypoint descriptors into small PCA
and sparse-NMF loading matrices (rank chosen by an information-content
criterion), quantizes them, and ships a few kilobytes to a server that ranks
database objects by column correlation and subspace angle, fusing the two
hypotheses into one ranked list.

Each layer is a submodule (``factormatch.service``, ``factormatch.evaluation``
and so on); only the synthetic-corpus entry points are re-exported here.
"""

from . import (
    codec,
    descriptors,
    evaluation,
    factorization,
    fusion,
    matcher,
    model_order,
    service,
)
from .descriptors import SynthCorpusSpec, generate_corpus, save_corpus

__version__ = "0.1.0"

__all__ = [
    "codec",
    "descriptors",
    "evaluation",
    "factorization",
    "fusion",
    "matcher",
    "model_order",
    "service",
    "SynthCorpusSpec",
    "generate_corpus",
    "save_corpus",
]
