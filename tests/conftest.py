import struct

import numpy as np
import pytest

from factormatch import SynthCorpusSpec, generate_corpus


@pytest.fixture(scope="session")
def small_noisy_corpus():
    """8 objects x 3 views, T=16, planted rank 3, light noise."""
    spec = SynthCorpusSpec(
        num_objects=8, views_per_object=3, T=16, descriptors_per_view=120,
        planted_rank=3, view_noise_sigma=0.02, seed=42,
    )
    return generate_corpus(spec)


@pytest.fixture(scope="session")
def eval_corpus():
    """The seeded evaluation corpus: 50 objects x 5 views, T=32, r=4, sigma=0.05."""
    spec = SynthCorpusSpec(
        num_objects=50, views_per_object=5, T=32, descriptors_per_view=400,
        planted_rank=4, view_noise_sigma=0.05, seed=1,
    )
    return generate_corpus(spec)


def random_unit_columns(rng: np.random.Generator, T: int, k: int) -> np.ndarray:
    """Random loadings-shaped matrix with unit-norm columns."""
    cols = rng.standard_normal((T, k))
    return cols / np.linalg.norm(cols, axis=0)


def blob_header_bytes(image_id: str) -> int:
    """Size of everything before the packed levels in a QFL1 blob: magic,
    the ``<BBHHffH`` kind/bits/T/k/lo/hi/id-length header and the image id."""
    return 4 + struct.calcsize("<BBHHffH") + len(image_id.encode("utf-8"))
