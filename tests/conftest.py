import contextlib
import importlib.util
import math
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from factormatch import SynthCorpusSpec, evaluation, factorization, generate_corpus, matcher
from factormatch.codec import QuantizedLoadings
from factormatch.descriptors import DescriptorMatrix
from factormatch.factorization import (
    KIND_NMF,
    KIND_PCA,
    FactorAssignment,
    FactorLoadings,
    SvdResult,
)
from factormatch.fusion import FusionParams, RankedList
from factormatch.matcher import IndexRecord, ObjectIndex
from factormatch.model_order import RESIDUAL_FLOOR
from factormatch.service import RetrievalServer, factorized, quantized

UNIT_NORM_TOL = 1e-9
ORTHONORMAL_TOL = 1e-8
BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name, monkeypatch):
    """bench/<name>.py as a module until ``monkeypatch`` is undone, with
    bench/ on the path (workloads imports reference) and the module
    registered (a dataclass looks its module up)."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


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


def records_of(corpus, k_max: int | None = None, bits: int | None = 5) -> list[IndexRecord]:
    """Every image's record as its client uploads it, through the package's
    one record path."""
    return list(quantized(factorized(corpus, k_max), bits))


def index_of(corpus, k_max: int | None = None, bits: int | None = 5) -> ObjectIndex:
    """The index a server holds of ``corpus``'s uploads at ``bits`` bits."""
    return ObjectIndex(records_of(corpus, k_max, bits))


@pytest.fixture
def svd_calls(monkeypatch):
    """Count compute_svd calls through every module that binds it."""
    from factormatch import model_order, service

    calls = []
    original = factorization.compute_svd

    def counted(m):
        calls.append(m.image_id)
        return original(m)

    for module in (factorization, model_order, service):
        monkeypatch.setattr(module, "compute_svd", counted, raising=False)
    return calls


@pytest.fixture
def workers(monkeypatch):
    """Set how many parts the matcher splits a kernel call into, on a
    thread pool made afresh at that size, however little work a part
    carries; all is restored after the test."""

    def set_workers(n: int) -> None:
        monkeypatch.setattr(matcher, "_workers", n)
        monkeypatch.setattr(matcher, "_pool", None)
        for least in ("_PART_GEMM", "_PART_ANGLE"):
            monkeypatch.setattr(matcher, least, 1)
        monkeypatch.setattr(matcher, "_SPLIT_PRODUCT", 0)

    return set_workers


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


def gesdd_svd(m: DescriptorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``(U, singular values)`` of LAPACK's divide-and-conquer SVD of the
    whole descriptor matrix, with a full ``T x T`` ``U`` when ``T > N``."""
    values = m.values.astype(np.float64)
    U, s, _ = np.linalg.svd(values, full_matrices=values.shape[0] > values.shape[1])
    return U, s


def farthest_point_init(values: np.ndarray, k: int, seed: int) -> np.ndarray:
    """The NMF's initial loadings with every distance from its own
    difference vector: seeded first pick, then max-min-distance greedy."""
    N = values.shape[1]
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(N))]
    dist2 = np.sum((values - values[:, chosen[0]][:, None]) ** 2, axis=0)
    for _ in range(k - 1):
        nxt = int(np.argmax(dist2))
        chosen.append(nxt)
        cand = np.sum((values - values[:, nxt][:, None]) ** 2, axis=0)
        dist2 = np.minimum(dist2, cand)
    L = values[:, chosen].copy()
    norms = np.linalg.norm(L, axis=0)
    norms[norms == 0] = 1.0
    return L / norms


def explicit_nmf(m: DescriptorMatrix, k: int, seed: int = 0):
    """The sparse NMF with the objective summed from its ``T x N`` residual
    and each cluster sum a bincount in descriptor order: returns
    ``(L, cluster_of, scale_of, trace)`` under the package's stopping rule."""
    values = m.values.astype(np.float64)
    col_idx = np.arange(m.N)
    row_idx = np.arange(m.T)[:, None]

    def assign(L):
        S = L.T @ values
        cluster = np.argmax(S, axis=0)
        return cluster, np.maximum(S[cluster, col_idx], 0.0)

    def objective(L, cluster, scale):
        return 0.5 * float(np.sum((values - L[:, cluster] * scale) ** 2))

    L = farthest_point_init(values, k, seed)
    cluster, scale = assign(L)
    trace = [objective(L, cluster, scale)]
    for _ in range(factorization._NMF_MAX_ITERS - 1):
        weighted = np.bincount(
            (cluster * m.T + row_idx).ravel(), weights=(values * scale).ravel(),
            minlength=k * m.T,
        ).reshape(k, m.T).T
        norms = np.linalg.norm(weighted, axis=0)
        live = norms > 0
        L_new = np.zeros_like(L)
        L_new[:, live] = weighted[:, live] / norms[live]
        if not live.all():
            residual = np.sum((values - L_new[:, cluster] * scale) ** 2, axis=0)
            for j in np.where(~live)[0]:
                pick = int(np.argmax(residual))
                L_new[:, j] = values[:, pick] / np.linalg.norm(values[:, pick])
                residual[pick] = -1.0
        cluster_new, scale_new = assign(L_new)
        obj = objective(L_new, cluster_new, scale_new)
        if obj >= trace[-1]:
            break
        L, cluster, scale = L_new, cluster_new, scale_new
        converged = (trace[-1] - obj) < factorization._NMF_TOL * trace[-1]
        trace.append(obj)
        if converged:
            break
    return L, cluster, scale, np.array(trace)


def subspace_angle(a: FactorLoadings, b: FactorLoadings) -> float:
    """Smallest principal angle between the column spans, in [0, pi/2]: the
    index's angle kernel on a one-image index that holds ``b``'s columns as
    both kinds; ``WORST_ANGLE`` where either side is degenerate."""
    matcher._check_dims(a.T, b.T)
    index = ObjectIndex([("b", FactorLoadings(b.image_id, KIND_PCA, b.columns),
                          FactorLoadings(b.image_id, KIND_NMF, b.columns))])
    return float(matcher._angle_keys([a], index, index._rows(None))[0, 0])


def lookup_fuse(v_pri: RankedList, v_sec: RankedList, params: FusionParams) -> RankedList:
    """``fusion.fuse`` with one dict lookup of each secondary rank per pair."""
    eta, alpha = params.eta, params.alpha
    for name, lst in (("primary", v_pri), ("secondary", v_sec)):
        if len(lst) > eta:
            raise ValueError(f"{name} list length {len(lst)} exceeds eta={eta}")
    sec_rank = {obj: pos for pos, obj in enumerate(v_sec.object_ids(), start=1)}
    absent = eta + 1
    working = list(v_pri.entries)
    n = len(working)
    for _ in range(eta * eta):
        swapped = False
        i = 1
        while i < min(eta / 2, n):
            for j in range(1, min(eta, n) - i + 1):
                a = sec_rank.get(working[i - 1].object_id, absent)
                b = sec_rank.get(working[i + j - 1].object_id, absent)
                if a > b + alpha + j:
                    working[i - 1], working[i + j - 1] = working[i + j - 1], working[i - 1]
                    swapped = True
            i += 1
        if not swapped:
            break
    return RankedList(entries=tuple(working), eta=eta)


def per_query_sweep(corpus, ranks=(None,), rates=(5,), alphas=(2,),
                    pipelines=evaluation.PIPELINES, eta=20, top=20, k_max=None, query_view=1,
                    corpus_label="corpus") -> evaluation.EvalReport:
    """``evaluation.evaluate`` on valid arguments with each query ranked on its
    own: one ``rank_database`` call per single-metric pipeline and one
    ``combined_hypotheses`` call per query, fused with :func:`lookup_fuse`."""
    top = min(top, eta)
    queries, database = evaluation.split_queries(corpus, query_view)
    points = [(p, a) for p in pipelines for a in (alphas if p == "combined" else [None])]
    report = evaluation.EvalReport(corpus_label, eta)
    db_by_rank = evaluation._factorized_by_rank(database, k_max, ranks)
    query_by_rank = evaluation._factorized_by_rank(queries, k_max, ranks)
    for fixed_k, db_loadings, query_loadings in zip(ranks, db_by_rank, query_by_rank):
        for bits in rates:
            index = ObjectIndex(quantized(db_loadings, bits))
            positions = [[] for _ in points]
            for object_id, q_pca, q_nmf in quantized(query_loadings, bits):
                if "combined" in pipelines:
                    v_pri, v_sec = matcher.combined_hypotheses(q_pca, q_nmf, index, eta)
                for (pipeline, alpha), found in zip(points, positions):
                    if pipeline == "combined":
                        ranked = lookup_fuse(v_pri, v_sec, FusionParams(alpha=alpha, eta=eta))
                    else:
                        kind, metric = evaluation._SINGLE_METRIC[pipeline]
                        query = q_pca if kind == KIND_PCA else q_nmf
                        ranked = matcher.rank_database(query, index, metric, eta)
                    found.append(evaluation._true_object_rank(ranked, object_id))
            for (pipeline, alpha), found in zip(points, positions):
                report.records.extend(
                    evaluation.EvalRecord(
                        pipeline, evaluation.rank_mode_label(fixed_k), bits, alpha, n,
                        sum(1 for p in found if p is not None and p <= n) / len(found))
                    for n in range(1, top + 1))
    return report


def correlation_score(a: FactorLoadings, b: FactorLoadings) -> float:
    """Sum over b's columns of their maximum correlation with a's columns,
    from one float64 product of the columns as given."""
    matcher._check_dims(a.T, b.T)
    return float(np.sum((a.columns.T @ b.columns).max(axis=0)))


def quantizer_step(q: QuantizedLoadings) -> float:
    """The quantizer's step, ``(hi - lo) / (2^b - 1)``."""
    return (q.hi - q.lo) / ((1 << q.bits) - 1)


def lattice_values(q: QuantizedLoadings) -> np.ndarray:
    """Raw reconstruction ``lo + level * step`` (no renormalization)."""
    return q.lo + q.levels.astype(np.float64) * quantizer_step(q)


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
