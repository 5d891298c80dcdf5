"""Reference checker for the benchmark, written apart from ``factormatch``.

Nothing here imports the package under test. Every computation starts from
the documented byte layouts and the method's definitions:

* QFL1 blob: ``"QFL1" | u8 kind | u8 bits | u16 T | u16 k | f32 lo | f32 hi |
  u16 id_len | id | ceil(T*k*bits/8) bytes``, levels column-major and
  LSB-first. Decoding reads each level from its bit offset, not by
  unpacking a bit stream.
* IDX1 index: ``"IDX1" | u32 count | count * (u16 obj_len | object id |
  u32 len | PCA blob | u32 len | NMF blob)``.
* Correlation score of database loadings ``B`` against query ``A``: the sum
  over ``B``'s columns of the largest entry of that column of ``A^T B``.
  All database columns are stacked into one matrix and scored by one GEMM.
* Subspace angle: ``arccos`` of the largest singular value of
  ``Qa^T Qb``, with ``Qa, Qb`` from QR factorizations (Bjorck & Golub,
  Math. Comp. 27, 1973).
* Fusion: margin-gated pairwise swaps of the primary list, pair
  ``(i, i+j)`` swapped iff ``a > b + alpha + j`` for secondary ranks
  ``a, b`` (absent objects rank ``eta + 1``), passes ``i < eta/2``, until a
  pass swaps nothing or ``eta**2`` passes ran.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

BLOB_HEADER = struct.Struct("<4sBBHHffH")  # 20 bytes before the image id
KIND_NAMES = {0: "pca", 1: "nmf"}
KIND_RANGES = {0: (-1.0, 1.0), 1: (0.0, 1.0)}

# Two reference scores closer than this are a tie: the program may order the
# entries either way, since its float summation order differs from ours.
TIE_TOL = 1e-9
# Response scores travel as f32; an angle in [0, pi/2] rounds by < 1e-7.
SCORE_TOL = 1e-5
# Dequantized loadings must agree with ours to float64 rounding.
LOADINGS_TOL = 1e-12


class Mismatch(AssertionError):
    """The program's output differs from the reference."""


@dataclass(frozen=True)
class Blob:
    image_id: str
    kind: int
    bits: int
    lo: float
    hi: float
    levels: np.ndarray  # T x k, uint32

    def loadings(self) -> np.ndarray:
        """Lattice values ``lo + level * step``, columns rescaled to unit norm."""
        step = (self.hi - self.lo) / ((1 << self.bits) - 1)
        x = self.lo + self.levels.astype(np.float64) * step
        norms = np.sqrt(np.sum(x * x, axis=0))
        return x / np.where(norms > 0, norms, 1.0)


def blob_size(T: int, k: int, bits: int, image_id: str) -> int:
    return BLOB_HEADER.size + len(image_id.encode("utf-8")) + math.ceil(T * k * bits / 8)


def decode_blob(data: bytes) -> Blob:
    """Parse one QFL1 blob; the blob must end exactly where its levels end."""
    if len(data) < BLOB_HEADER.size:
        raise Mismatch(f"blob of {len(data)} bytes is shorter than its header")
    magic, kind, bits, T, k, lo, hi, id_len = BLOB_HEADER.unpack_from(data)
    if magic != b"QFL1" or kind not in KIND_NAMES or not 1 <= bits <= 16:
        raise Mismatch(f"bad blob header {magic!r} kind={kind} bits={bits}")
    if (lo, hi) != KIND_RANGES[kind]:
        raise Mismatch(f"{KIND_NAMES[kind]} blob range [{lo}, {hi}]")
    image_id = data[BLOB_HEADER.size:BLOB_HEADER.size + id_len].decode("utf-8")
    if len(data) != blob_size(T, k, bits, image_id):
        raise Mismatch(f"blob {image_id!r} has {len(data)} bytes, layout says "
                       f"{blob_size(T, k, bits, image_id)}")
    body = np.frombuffer(data, np.uint8, offset=BLOB_HEADER.size + id_len)
    # level i occupies bits [i*bits, (i+1)*bits) of the little-endian body;
    # bits <= 16 means it spans at most three bytes
    padded = np.concatenate([body, np.zeros(3, np.uint8)]).astype(np.uint32)
    start = np.arange(T * k, dtype=np.int64) * bits
    byte, shift = start // 8, (start % 8).astype(np.uint32)
    window = padded[byte] | (padded[byte + 1] << 8) | (padded[byte + 2] << 16)
    levels = (window >> shift) & np.uint32((1 << bits) - 1)
    return Blob(image_id, kind, bits, float(lo), float(hi),
                levels.reshape(k, T).T.copy())


def check_blob(data: bytes, image_id: str, kind: int, bits: int,
               levels: np.ndarray) -> Blob:
    """The blob must carry exactly these levels under this id, kind and rate."""
    blob = decode_blob(data)
    if (blob.image_id, blob.kind, blob.bits) != (image_id, kind, bits):
        raise Mismatch(f"blob header {(blob.image_id, blob.kind, blob.bits)} != "
                       f"{(image_id, kind, bits)}")
    if blob.levels.shape != levels.shape or not np.array_equal(blob.levels, levels):
        raise Mismatch(f"blob {image_id!r} levels differ from the quantizer's")
    return blob


def query_frame_bytes(blobs: list[Blob]) -> int:
    """Bytes of one framed QRY1 upload: frame length, header, two blobs."""
    return 4 + 9 + 2 * 4 + sum(
        blob_size(b.levels.shape[0], b.levels.shape[1], b.bits, b.image_id)
        for b in blobs)


@dataclass(frozen=True)
class IndexEntry:
    object_id: str
    pca: Blob
    nmf: Blob


def decode_index(data: bytes) -> list[IndexEntry]:
    if data[:4] != b"IDX1":
        raise Mismatch(f"bad index magic {data[:4]!r}")
    (count,) = struct.unpack_from("<I", data, 4)
    pos, entries = 8, []
    for _ in range(count):
        (obj_len,) = struct.unpack_from("<H", data, pos)
        object_id = data[pos + 2:pos + 2 + obj_len].decode("utf-8")
        pos += 2 + obj_len
        blobs = []
        for _ in range(2):
            (blob_len,) = struct.unpack_from("<I", data, pos)
            blobs.append(decode_blob(data[pos + 4:pos + 4 + blob_len]))
            pos += 4 + blob_len
        if (blobs[0].kind, blobs[1].kind) != (0, 1):
            raise Mismatch(f"index entry {blobs[0].image_id!r} has kinds "
                           f"{(blobs[0].kind, blobs[1].kind)}")
        entries.append(IndexEntry(object_id, blobs[0], blobs[1]))
    if pos != len(data):
        raise Mismatch(f"{len(data) - pos} trailing bytes in index")
    return entries


def _orthonormal(x: np.ndarray) -> np.ndarray | None:
    """Q of a thin QR, or None when the columns are numerically dependent."""
    q, r = np.linalg.qr(x)
    d = np.abs(np.diag(r))
    if d.size == 0 or d.max() == 0 or d.min() <= max(x.shape) * np.finfo(float).eps * d.max():
        return None
    return q


class ReferenceIndex:
    """The database decoded from an IDX1 file, scored by the definitions above."""

    def __init__(self, entries: list[IndexEntry]):
        self.entries = entries
        self.ids = [e.pca.image_id for e in entries]
        self.objects = [e.object_id for e in entries]
        pca = [e.pca.loadings() for e in entries]
        self.pca_stack = np.concatenate(pca, axis=1)
        self.offsets = np.cumsum([0] + [p.shape[1] for p in pca[:-1]])
        self._nmf_basis: dict[int, np.ndarray | None] = {}

    def _dedup(self, keyed: list[tuple[float, str, int]], eta: int,
               sign: float) -> list[tuple[str, float]]:
        """Best-first by (key, image id); one entry per object; top eta."""
        out, seen = [], set()
        for key, _, row in sorted(keyed):
            obj = self.objects[row]
            if obj not in seen:
                seen.add(obj)
                out.append((obj, sign * key))
                if len(out) == eta:
                    break
        return out

    def correlation_rank(self, query_pca: np.ndarray, eta: int):
        colmax = (query_pca.T @ self.pca_stack).max(axis=0)
        scores = np.add.reduceat(colmax, self.offsets)
        keyed = [(-float(s), self.ids[r], r) for r, s in enumerate(scores)]
        return self._dedup(keyed, eta, -1.0)

    def angle(self, qa: np.ndarray | None, row: int) -> float:
        if row not in self._nmf_basis:
            self._nmf_basis[row] = _orthonormal(self.entries[row].nmf.loadings())
        qb = self._nmf_basis[row]
        if qa is None or qb is None:
            return math.pi / 2
        s = np.linalg.svd(qa.T @ qb, compute_uv=False)[0]
        return float(np.arccos(np.clip(s, -1.0, 1.0)))

    def combined(self, query_pca: np.ndarray, query_nmf: np.ndarray,
                 eta: int, alpha: int) -> "Expected":
        secondary = self.correlation_rank(query_pca, eta)
        wanted = {obj for obj, _ in secondary}
        rows = [r for r, obj in enumerate(self.objects) if obj in wanted]
        qa = _orthonormal(query_nmf)
        angle_keyed = [(self.angle(qa, r), self.ids[r], r) for r in rows]
        primary = self._dedup(angle_keyed, eta, 1.0)
        order = fuse([o for o, _ in primary], [o for o, _ in secondary], eta, alpha)
        score = dict(primary)
        return Expected([(o, score[o]) for o in order], score)


def fuse(primary: list[str], secondary: list[str], eta: int, alpha: int) -> list[str]:
    sec_rank = {obj: pos for pos, obj in enumerate(secondary, start=1)}
    absent = eta + 1
    work = list(primary)
    n = len(work)
    for _ in range(eta * eta):
        swapped = False
        for i in range(1, (eta + 1) // 2):  # every i < eta / 2
            for j in range(1, min(eta - i, n - i) + 1):
                a = sec_rank.get(work[i - 1], absent)
                b = sec_rank.get(work[i + j - 1], absent)
                if a > b + alpha + j:
                    work[i - 1], work[i + j - 1] = work[i + j - 1], work[i - 1]
                    swapped = True
        if not swapped:
            break
    return work


@dataclass(frozen=True)
class Expected:
    """Reference answer: fused (object, angle) list and every primary score."""

    entries: list[tuple[str, float]]
    angle_of: dict[str, float]

    def check(self, status: int, got: list[tuple[str, float, int]]) -> None:
        """A response must list the reference objects with their scores;
        two positions may hold swapped objects only when their reference
        angles tie within ``TIE_TOL``."""
        if status != 0:
            raise Mismatch(f"status {status}")
        if [r for _, _, r in got] != list(range(1, len(got) + 1)):
            raise Mismatch("response ranks are not 1..n")
        if len(got) != len(self.entries):
            raise Mismatch(f"{len(got)} entries, reference has {len(self.entries)}")
        for (obj, score, _), (ref_obj, _) in zip(got, self.entries):
            if obj not in self.angle_of:
                raise Mismatch(f"object {obj!r} is not among the reranked candidates")
            if abs(score - self.angle_of[obj]) > SCORE_TOL:
                raise Mismatch(f"{obj}: score {score} != reference {self.angle_of[obj]}")
            if obj != ref_obj and abs(self.angle_of[obj] - self.angle_of[ref_obj]) > TIE_TOL:
                raise Mismatch(f"{obj} where the reference ranks {ref_obj}")
