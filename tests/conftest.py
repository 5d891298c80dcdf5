import contextlib
import math
import struct
import threading

import numpy as np
import pytest

from factormatch import SynthCorpusSpec, generate_corpus
from factormatch.codec import QuantizedLoadings
from factormatch.descriptors import DescriptorMatrix
from factormatch.factorization import (
    KIND_PCA,
    FactorAssignment,
    FactorLoadings,
    SvdResult,
)
from factormatch.matcher import ObjectIndex
from factormatch.model_order import RESIDUAL_FLOOR
from factormatch.service import RetrievalServer

UNIT_NORM_TOL = 1e-9
ORTHONORMAL_TOL = 1e-8


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


@contextlib.contextmanager
def serve(index: ObjectIndex, **kw):
    """A :class:`RetrievalServer` on an ephemeral loopback port, its accept
    loop in a daemon thread; shut down, joined and closed on exit."""
    server = RetrievalServer(index, **kw)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


# --- oracles: one-value forms of what the package computes in bulk -----------


def lattice_values(q: QuantizedLoadings) -> np.ndarray:
    """Raw reconstruction ``lo + level * step`` (no renormalization)."""
    return q.lo + q.levels.astype(np.float64) * q.step


def payload_bytes(q: QuantizedLoadings) -> int:
    """Size of the packed levels of a QFL1 blob: ``ceil(T*k*bits/8)``."""
    return (q.T * q.k * q.bits + 7) // 8


def reference_levels(blob: bytes) -> tuple[tuple, np.ndarray]:
    """Bit-by-bit QFL1 decoder that shares no code with the codec: the
    header fields ``(kind code, bits, T, k, lo, hi, image id)`` and the
    ``T x k`` levels. Level ``i`` of the column-major stream sits at body
    bit ``i * bits``, LSB-first (body bit ``p`` is bit ``p % 8`` of body
    byte ``p // 8``); the body is ``ceil(T*k*bits/8)`` bytes and every
    padding bit after the levels is zero."""
    assert blob[:4] == b"QFL1"
    kind_code, bits, T, k, lo, hi, id_len = struct.unpack_from("<BBHHffH", blob, 4)
    image_id = blob[20:20 + id_len].decode("utf-8")
    body = blob[blob_header_bytes(image_id):]
    n = T * k
    assert len(body) == (n * bits + 7) // 8

    def bit(p):
        return body[p // 8] >> (p % 8) & 1

    assert not any(bit(p) for p in range(n * bits, 8 * len(body)))
    stream = [sum(bit(i * bits + j) << j for j in range(bits)) for i in range(n)]
    levels = np.array(stream, dtype=np.int64).reshape(k, T).T
    return (kind_code, bits, T, k, lo, hi, image_id), levels


def reference_index_blobs(data: bytes) -> list[tuple[str, bytes, bytes]]:
    """``(object_id, pca blob, nmf blob)`` of each record of an ``IDX1``
    file, split with ``struct`` alone."""
    assert data[:4] == b"IDX1"
    (count,) = struct.unpack_from("<I", data, 4)
    pos, records = 8, []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", data, pos)
        object_id = data[pos + 2:pos + 2 + n].decode("utf-8")
        pos += 2 + n
        blobs = []
        for _ in range(2):
            (n,) = struct.unpack_from("<I", data, pos)
            blobs.append(data[pos + 4:pos + 4 + n])
            pos += 4 + n
        records.append((object_id, *blobs))
    assert pos == len(data)
    return records


def spec_label(spec: SynthCorpusSpec) -> str:
    """The ``synthetic:<spec>`` corpus argument that describes ``spec``."""
    return (f"synthetic:objects={spec.num_objects},views={spec.views_per_object},"
            f"T={spec.T},N={spec.descriptors_per_view},r={spec.planted_rank},"
            f"sigma={spec.view_noise_sigma},seed={spec.seed}")


def validate_loadings(f: FactorLoadings) -> None:
    """Check the loading invariants that fresh factorizations satisfy:
    unit-norm columns, orthonormal for PCA and non-negative for NMF (not
    dequantized ones, which the quantization lattice perturbs)."""
    norms = np.linalg.norm(f.columns, axis=0)
    if not np.allclose(norms, 1.0, atol=UNIT_NORM_TOL, rtol=0):
        raise ValueError(f"columns are not unit-norm (norms {norms})")
    if f.kind == KIND_PCA:
        gram = f.columns.T @ f.columns
        if not np.allclose(gram, np.eye(f.k), atol=ORTHONORMAL_TOL, rtol=0):
            raise ValueError("PCA loadings are not orthonormal")
    elif (f.columns < 0).any():
        raise ValueError("NMF loadings contain negative entries")


def residual_variance(m: DescriptorMatrix, svd: SvdResult, k: int) -> float:
    """Mean squared residual of the rank-k PCA model: tail energy over T*N."""
    limit = min(m.T, m.N)
    if not 1 <= k <= limit:
        raise ValueError(f"k={k} out of range [1, {limit}]")
    s = svd.singular_values
    tail = float(np.sum(s[k:] ** 2))
    return max(tail / (m.T * m.N), RESIDUAL_FLOOR)


def information_content(V_k: float, k: int, T: int, N: int) -> float:
    """Evaluate the information-content criterion at one candidate rank."""
    if V_k <= 0:
        raise ValueError("V_k must be positive (apply the residual floor first)")
    penalty = k * ((T + N) / (T * N)) * math.log((T * N) / (T + N))
    return math.log(V_k) + penalty


def to_matrix(assign: FactorAssignment) -> np.ndarray:
    """Densify an assignment to the ``k x N`` factor matrix (one nonzero per column)."""
    R = np.zeros((assign.k, assign.N))
    R[assign.cluster_of, np.arange(assign.N)] = assign.scale_of
    return R


def nmf_objective(
    m: DescriptorMatrix, loadings: FactorLoadings, assign: FactorAssignment
) -> float:
    """``0.5 * ||M - L R||_F^2`` with R densified from the assignment."""
    if loadings.T != m.T or assign.N != m.N or assign.k != loadings.k:
        raise ValueError(
            f"shape mismatch: M is {m.T}x{m.N}, L is {loadings.T}x{loadings.k}, "
            f"R is {assign.k}x{assign.N}"
        )
    residual = m.values.astype(np.float64) - loadings.columns @ to_matrix(assign)
    return 0.5 * float(np.sum(residual * residual))
