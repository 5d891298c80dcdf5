"""Fixed-rate scalar quantization of factor loadings and bit-exact blobs.

The quantizer is uniform over a range fixed per loading kind — ``[-1, 1]``
for PCA, ``[0, 1]`` for NMF — which unit-norm columns guarantee, so no side
information travels with the payload. ``b`` bits give ``2^b - 1`` steps with
both endpoints representable.

Blob layout (little-endian): magic ``QFL1``, u8 kind (0=PCA, 1=NMF), u8 b,
u16 T, u16 k, f32 lo, f32 hi, u16 id length + UTF-8 image id, then
``ceil(T*k*b/8)`` bytes of levels packed column-major, LSB-first within each
byte, the padding bits of the last byte zero: level ``i`` of the stream sits
at bits ``[i*b, (i+1)*b)`` of the body.

Eight ``b``-bit levels fill exactly ``b`` bytes, so levels are packed and
unpacked eight at a time, each group as one little-endian 128-bit word in
two ``uint64`` lanes, for every blob of one ``(T, k, b)`` shape at once; a
partial last group is padded with zero levels. :func:`encode_many` and
:func:`decode_many` work that way over many blobs, grouped by shape, in
chunks of whole blobs of about :data:`CHUNK_LEVELS` levels, and
:func:`encode` and :func:`decode` are their one-blob case. ``decode_many``
is the one QFL1 reader: it checks every blob, in the order it draws them,
before it unpacks any level.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .binary import Reader, text
from .factorization import KIND_NMF, KIND_PCA, FactorLoadings

BLOB_MAGIC = b"QFL1"
_KIND_CODE = {KIND_PCA: 0, KIND_NMF: 1}
_CODE_KIND = {0: KIND_PCA, 1: KIND_NMF}
RANGE_SLACK = 1e-9
# levels per chunk of whole blobs of one shape that encode_many and
# decode_many pack or unpack at once; bounds their temporaries
CHUNK_LEVELS = 1 << 16
_HEADER = struct.Struct("<BBHHff")


class CodecError(ValueError):
    """Raised when a quantized-loadings blob cannot be decoded."""


def kind_range(kind: str) -> tuple[float, float]:
    if kind == KIND_PCA:
        return -1.0, 1.0
    if kind == KIND_NMF:
        return 0.0, 1.0
    raise ValueError(f"unknown loadings kind {kind!r}")


def check_bits(bits: int) -> None:
    """Reject a rate the codec cannot pack: anything but an integer in 1..16."""
    if not (isinstance(bits, (int, np.integer)) and not isinstance(bits, bool)
            and 1 <= bits <= 16):
        raise ValueError(f"bits must lie in 1..16, got {bits!r}")


@dataclass(frozen=True)
class QuantizedLoadings:
    """One ``T x k`` loading matrix quantized at ``bits`` bits over its
    kind's fixed range (:func:`kind_range`): the levels and their bit width
    are all that varies, so ``T``, ``k``, ``lo`` and ``hi`` are read from
    them and from the kind."""

    image_id: str
    kind: str
    bits: int
    levels: np.ndarray = field(repr=False)  # T x k levels, C order, in _level_dtype(bits)

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODE:
            raise ValueError(f"unknown loadings kind {self.kind!r}")
        check_bits(self.bits)
        levels = np.asarray(self.levels)
        if levels.ndim != 2 or levels.size == 0:
            raise ValueError(f"levels must be a non-empty T x k matrix, got shape {levels.shape}")
        # checked as given, before narrowing could wrap a level into range
        if levels.dtype.kind not in "ui":
            raise ValueError(f"levels must be integers, got {levels.dtype}")
        if levels.dtype.kind == "i" and int(levels.min()) < 0:
            raise ValueError(f"level {int(levels.min())} is negative")
        if int(levels.max()) >= (1 << self.bits):
            raise ValueError(f"level {int(levels.max())} does not fit in {self.bits} bits")
        # canonical C layout in the narrowest dtype: summation order in
        # downstream reductions must not depend on whether levels came from
        # quantize() or decode(); a read-only view leaves the caller's array
        # writable
        levels = levels.astype(_level_dtype(self.bits), order="C", copy=False).view()
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)

    @property
    def T(self) -> int:
        return self.levels.shape[0]

    @property
    def k(self) -> int:
        return self.levels.shape[1]

    @property
    def lo(self) -> float:
        return kind_range(self.kind)[0]

    @property
    def hi(self) -> float:
        return kind_range(self.kind)[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantizedLoadings):
            return NotImplemented
        return ((self.image_id, self.kind, self.bits) == (other.image_id, other.kind, other.bits)
                and bool(np.array_equal(self.levels, other.levels)))


def _level_dtype(bits: int) -> np.dtype:
    """The narrowest unsigned dtype of ``bits``-bit levels."""
    return np.dtype(np.uint8 if bits <= 8 else np.uint16)


def quantize(f: FactorLoadings, bits: int) -> QuantizedLoadings:
    """Uniform-quantize a loading matrix at ``bits`` bits per entry.

    Rounds half away from zero; entries may exceed the nominal range by at
    most ``RANGE_SLACK`` (rounding headroom), anything worse is an error.
    """
    lo, hi = kind_range(f.kind)
    check_bits(bits)
    x = f.columns
    # written so that a NaN entry fails it too
    if not lo - RANGE_SLACK <= float(x.min()) <= float(x.max()) <= hi + RANGE_SLACK:
        raise ValueError(
            f"{f.kind} loading entries outside [{lo}, {hi}]: "
            f"range [{float(x.min())}, {float(x.max())}]"
        )
    step = (hi - lo) / ((1 << bits) - 1)
    # (x - lo) / step is non-negative, so half-away-from-zero == floor(v + 0.5)
    levels = np.minimum(np.floor((np.clip(x, lo, hi) - lo) / step + 0.5), (1 << bits) - 1)
    levels = levels.astype(_level_dtype(bits), order="C")
    return QuantizedLoadings(f.image_id, f.kind, bits, levels)


def dequantize(q: QuantizedLoadings) -> FactorLoadings:
    """Reconstruct loadings from levels: each column is its integer lattice
    vector ``M`` (``2L - (2^b - 1)`` for PCA levels ``L``, ``L`` itself for
    NMF), proportional to the lattice values ``lo + L * step`` that
    ``quantize`` inverts exactly, divided by ``sqrt(sum(M^2))`` of an exact
    int64 sum, so back to unit norm (downstream metrics assume it). An
    all-zero column (possible for coarse NMF quantization) has no norm to
    restore and is left as zeros; the matcher flags it when the loadings
    are actually used.
    """
    lattice = q.levels.astype(np.int64)
    if q.kind == KIND_PCA:
        lattice = 2 * lattice - ((1 << q.bits) - 1)
    norms = np.sqrt(np.einsum("ij,ij->j", lattice, lattice), dtype=np.float64)
    return FactorLoadings(q.image_id, q.kind, lattice / np.where(norms > 0, norms, 1.0))


def blob_size(q: QuantizedLoadings) -> int:
    """Bytes of ``encode(q)``: the header, the image id and ``ceil(T*k*b/8)``."""
    return (len(BLOB_MAGIC) + _HEADER.size + len(text(q.image_id))
            + (q.T * q.k * q.bits + 7) // 8)


def encode(q: QuantizedLoadings) -> bytes:
    """Serialize to the QFL1 blob format (bit-exact inverse of :func:`decode`)."""
    return next(encode_many([q]))


def encode_many(qs: Sequence[QuantizedLoadings]) -> Iterator[bytes]:
    """:func:`encode` of each loadings in turn; the levels of the blobs of
    each shape are packed together, a chunk at a time."""
    groups: dict[tuple[int, int, int], list[QuantizedLoadings]] = {}
    for q in qs:
        groups.setdefault((q.bits, q.T, q.k), []).append(q)
    bodies = {shape: _packed(group, *shape) for shape, group in groups.items()}
    for q in qs:
        yield (BLOB_MAGIC + _HEADER.pack(_KIND_CODE[q.kind], q.bits, q.T, q.k, q.lo, q.hi)
               + text(q.image_id) + next(bodies[q.bits, q.T, q.k]).tobytes())


def _parse(data: bytes | memoryview) -> tuple[str, int, int, int, str, bytes | memoryview]:
    """Check that ``data`` is exactly one well-formed QFL1 blob, raising
    :class:`CodecError` otherwise; return its ``(kind, bits, T, k,
    image_id, packed levels)``."""
    r = Reader(data, BLOB_MAGIC, "blob", CodecError)
    kind_code, bits, T, k, lo, hi = r.unpack("BBHHff", "header")
    if kind_code not in _CODE_KIND:
        raise CodecError(f"unknown kind code {kind_code}")
    if not 1 <= bits <= 16:
        raise CodecError(f"bits out of range: {bits}")
    if T < 1 or k < 1:
        raise CodecError(f"invalid shape {T}x{k}")
    image_id = r.text("image id")
    n_bits = T * k * bits
    body = r.take((n_bits + 7) // 8, "levels")
    r.end("the levels")
    if n_bits % 8 and body[-1] >> (n_bits % 8):
        raise CodecError("nonzero padding bits after the levels")
    kind = _CODE_KIND[kind_code]
    if (lo, hi) != kind_range(kind):
        raise CodecError(f"{kind} quantizer range must be {kind_range(kind)}, got [{lo}, {hi}]")
    return kind, bits, T, k, image_id, body


def decode(data: bytes) -> QuantizedLoadings:
    """Parse a QFL1 blob back into :class:`QuantizedLoadings`; any blob that
    is not exactly one well-formed QFL1 blob raises :class:`CodecError`."""
    return decode_many([data])[0]


def decode_many(blobs: Iterable[bytes | memoryview]) -> list[QuantizedLoadings]:
    """:func:`decode` of each blob in turn. Each blob is checked as it is
    drawn, and all of them before any level is unpacked; the levels of the
    blobs of each shape are then unpacked together, a chunk at a time."""
    image_ids: list[str] = []
    kinds: list[str] = []
    # per shape: the positions of its blobs and their packed levels
    groups: dict[tuple[int, int, int], tuple[list[int], list[bytes | memoryview]]] = {}
    for data in blobs:
        kind, bits, T, k, image_id, body = _parse(data)
        positions, bodies = groups.setdefault((bits, T, k), ([], []))
        positions.append(len(kinds))
        bodies.append(body)
        image_ids.append(image_id)
        kinds.append(kind)
    loadings = [None] * len(kinds)
    for (bits, T, k), (positions, bodies) in groups.items():
        for i, levels in zip(positions, _unpacked(bodies, bits, T, k)):
            loadings[i] = QuantizedLoadings(image_ids[i], kinds[i], bits, levels)
    return loadings


def _packed(qs: list[QuantizedLoadings], bits: int, T: int, k: int) -> Iterator[np.ndarray]:
    """The packed levels of each of ``qs``, all of one shape, in turn."""
    step = max(1, CHUNK_LEVELS // (T * k))
    for i in range(0, len(qs), step):
        part = qs[i:i + step]
        # each matrix's column-major level stream, one row per blob
        yield from _pack(np.stack([q.levels.T for q in part]).reshape(len(part), -1), bits)


def _unpacked(bodies: Sequence[bytes | memoryview], bits: int, T: int,
              k: int) -> Iterator[np.ndarray]:
    """The ``T x k`` levels of each of the packed ``bodies``, all of one
    shape, in turn."""
    step = max(1, CHUNK_LEVELS // (T * k))
    for i in range(0, len(bodies), step):
        part = np.frombuffer(b"".join(bodies[i:i + step]), dtype=np.uint8)
        # one transpose per chunk, to C-order T x k levels in their narrowest dtype
        yield from _unpack(part.reshape(-1, (T * k * bits + 7) // 8), T * k, bits).reshape(
            -1, k, T).transpose(0, 2, 1).astype(_level_dtype(bits), order="C")


def _pack(levels: np.ndarray, bits: int) -> np.ndarray:
    """``(m, n)`` level streams to ``(m, ceil(n*bits/8))`` bytes: each group
    of eight levels becomes one 128-bit word (two little-endian ``uint64``
    lanes) with level ``j`` at bit ``j*bits``, of which the low ``bits``
    bytes are kept."""
    m, n = levels.shape
    groups = -(-n // 8)
    eights = np.zeros((m, groups * 8), dtype=np.uint16)
    eights[:, :n] = levels
    eights = eights.reshape(-1, 8)
    words = np.zeros((eights.shape[0], 2), dtype="<u8")
    for j in range(8):
        lane, shift = divmod(j * bits, 64)
        level = eights[:, j].astype(np.uint64)
        words[:, lane] |= level << np.uint64(shift)
        if shift + bits > 64:  # the level straddles the two lanes
            words[:, 1] |= level >> np.uint64(64 - shift)
    packed = words.view(np.uint8)[:, :bits].reshape(m, groups * bits)
    return packed[:, :(n * bits + 7) // 8]


def _unpack(bodies: np.ndarray, n: int, bits: int) -> np.ndarray:
    """Inverse of :func:`_pack`: ``(m, ceil(n*bits/8))`` bytes to ``(m, n)``
    uint16 levels."""
    m, size = bodies.shape
    groups = -(-n // 8)
    padded = np.zeros((m, groups * bits), dtype=np.uint8)
    padded[:, :size] = bodies
    raw = np.zeros((m * groups, 16), dtype=np.uint8)
    raw[:, :bits] = padded.reshape(-1, bits)
    words = raw.view("<u8")
    mask = np.uint64((1 << bits) - 1)
    levels = np.empty((m * groups, 8), dtype=np.uint16)
    for j in range(8):
        lane, shift = divmod(j * bits, 64)
        level = words[:, lane] >> np.uint64(shift)
        if shift + bits > 64:
            level |= words[:, 1] << np.uint64(64 - shift)
        levels[:, j] = level & mask
    return levels.reshape(m, groups * 8)[:, :n]
