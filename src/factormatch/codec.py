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
:func:`unpack_many` work that way over many blobs, in chunks of whole blobs
of about :data:`CHUNK_LEVELS` levels, and :func:`encode` and
:func:`decode` are the one-blob case of the same packer pair.
:func:`dequantize_levels` dequantizes a stack of equally shaped level
matrices at once, bit for bit as one matrix at a time.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .binary import Reader, text
from .factorization import KIND_NMF, KIND_PCA, FactorLoadings

BLOB_MAGIC = b"QFL1"
_KIND_CODE = {KIND_PCA: 0, KIND_NMF: 1}
_CODE_KIND = {0: KIND_PCA, 1: KIND_NMF}
RANGE_SLACK = 1e-9
# levels per chunk of whole blobs that encode_many, unpack_many and the
# index's dequantization work on at once; bounds their temporaries
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


def _check_range(kind: str, lo: float, hi: float) -> None:
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if (lo, hi) != kind_range(kind):
        raise ValueError(f"{kind} quantizer range must be {kind_range(kind)}, got [{lo}, {hi}]")


@dataclass(frozen=True)
class QuantizedLoadings:
    """Bit-packed uniform quantization of one loading matrix."""

    image_id: str
    kind: str
    T: int
    k: int
    bits: int
    lo: float
    hi: float
    levels: np.ndarray = field(repr=False)  # T x k unsigned levels

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODE:
            raise ValueError(f"unknown loadings kind {self.kind!r}")
        if not 1 <= self.bits <= 16:
            raise ValueError(f"bits must lie in 1..16, got {self.bits}")
        if self.T < 1 or self.k < 1:
            raise ValueError(f"empty loadings shape {self.T}x{self.k}")
        _check_range(self.kind, self.lo, self.hi)
        # canonical C layout: summation order in downstream reductions must
        # not depend on whether levels came from quantize() or decode()
        levels = np.array(self.levels, dtype=np.uint32, order="C")
        if levels.shape != (self.T, self.k):
            raise ValueError(f"levels shape {levels.shape} != ({self.T}, {self.k})")
        if levels.size and int(levels.max()) >= (1 << self.bits):
            raise ValueError(f"level {int(levels.max())} does not fit in {self.bits} bits")
        object.__setattr__(self, "levels", levels)
        levels.setflags(write=False)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / ((1 << self.bits) - 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantizedLoadings):
            return NotImplemented
        return (
            (self.image_id, self.kind, self.T, self.k, self.bits, self.lo, self.hi)
            == (other.image_id, other.kind, other.T, other.k, other.bits, other.lo, other.hi)
            and bool(np.array_equal(self.levels, other.levels))
        )


def quantize(f: FactorLoadings, bits: int) -> QuantizedLoadings:
    """Uniform-quantize a loading matrix at ``bits`` bits per entry.

    Rounds half away from zero; entries may exceed the nominal range by at
    most ``RANGE_SLACK`` (rounding headroom), anything worse is an error.
    """
    lo, hi = kind_range(f.kind)
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must lie in 1..16, got {bits}")
    x = f.columns
    if float(x.min()) < lo - RANGE_SLACK or float(x.max()) > hi + RANGE_SLACK:
        raise ValueError(
            f"{f.kind} loading entries outside [{lo}, {hi}]: "
            f"range [{float(x.min())}, {float(x.max())}]"
        )
    step = (hi - lo) / ((1 << bits) - 1)
    # (x - lo) / step is non-negative, so half-away-from-zero == floor(v + 0.5)
    levels = np.floor((np.clip(x, lo, hi) - lo) / step + 0.5).astype(np.uint32)
    levels = np.minimum(levels, (1 << bits) - 1)
    return QuantizedLoadings(
        image_id=f.image_id, kind=f.kind, T=f.T, k=f.k,
        bits=bits, lo=lo, hi=hi, levels=levels,
    )


def dequantize(q: QuantizedLoadings) -> FactorLoadings:
    """Reconstruct loadings from levels, each column rescaled back to unit
    norm (downstream metrics assume it). An all-zero column (possible for
    coarse NMF quantization) has no norm to restore and is left as zeros;
    the matcher flags it when the loadings are actually used. The lattice
    values ``lo + level * step`` before the rescaling are those for which
    ``quantize`` is the exact inverse.
    """
    return FactorLoadings(q.image_id, q.kind, dequantize_levels(q.levels, q.kind, q.bits))


def dequantize_levels(levels: np.ndarray, kind: str, bits: int) -> np.ndarray:
    """:func:`dequantize` of a ``T x k`` level matrix, or of an ``(n, T, k)``
    stack of them at once: each matrix gives the same float64 bits alone or
    in a stack of any size."""
    lo, hi = kind_range(kind)
    # one C-order array, so every norm sums its column in the same order
    x = levels.astype(np.float64, order="C")
    x *= (hi - lo) / ((1 << bits) - 1)
    x += lo
    norms = np.linalg.norm(x, axis=-2, keepdims=True)
    x /= np.where(norms > 0, norms, 1.0)
    return x


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
    shapes, group_of = _shapes(np.fromiter(
        (_shape_key(q.bits, q.T, q.k) for q in qs), dtype=np.int64, count=len(qs)))
    bodies = [_packed([qs[i] for i in np.flatnonzero(group_of == g).tolist()], *shape)
              for g, shape in enumerate(shapes)]
    for q, g in zip(qs, group_of.tolist()):
        yield (BLOB_MAGIC + _HEADER.pack(_KIND_CODE[q.kind], q.bits, q.T, q.k, q.lo, q.hi)
               + text(q.image_id) + next(bodies[g]).tobytes())


def parse(data: bytes) -> tuple[str, int, int, int, str, bytes]:
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
    try:
        _check_range(kind, float(lo), float(hi))
    except ValueError as exc:
        raise CodecError(str(exc)) from None
    return kind, bits, T, k, image_id, body


def decode(data: bytes) -> QuantizedLoadings:
    """Parse a QFL1 blob back into :class:`QuantizedLoadings`; any blob that
    is not exactly one well-formed QFL1 blob raises :class:`CodecError`."""
    kind, bits, T, k, image_id, body = parse(data)
    levels = _unpack(np.frombuffer(body, dtype=np.uint8)[None], T * k, bits)[0]
    return QuantizedLoadings(image_id, kind, T, k, bits, *kind_range(kind),
                             levels.reshape(k, T).T)


def unpack_many(data: bytes, blobs: np.ndarray) -> Iterator[np.ndarray]:
    """The ``T x k`` levels of each blob that :func:`parse` accepted in
    ``data``, in turn, given one ``(bits, T, k, offset of the packed
    levels)`` row per blob; the levels of the blobs of each shape are
    unpacked together, a chunk at a time."""
    body = np.frombuffer(data, dtype=np.uint8)
    shapes, group_of = _shapes(_shape_key(blobs[:, 0], blobs[:, 1], blobs[:, 2]))
    levels = [_unpacked(body, blobs[group_of == g, 3], *shape) for g, shape in enumerate(shapes)]
    for g in group_of.tolist():
        yield next(levels[g])


def _shape_key(bits, T, k):
    """One integer per ``(bits, T, k)``: bits < 2^5, T and k < 2^16."""
    return bits << 32 | T << 16 | k


def _shapes(keys: np.ndarray) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """The distinct ``(bits, T, k)`` among the blobs' shape keys, and the
    position of each blob's in that list."""
    distinct, group_of = np.unique(keys, return_inverse=True)
    return ([(key >> 32, key >> 16 & 0xFFFF, key & 0xFFFF) for key in distinct.tolist()],
            group_of)


def _packed(qs: list[QuantizedLoadings], bits: int, T: int, k: int) -> Iterator[np.ndarray]:
    """The packed levels of each of ``qs``, all of one shape, in turn."""
    step = max(1, CHUNK_LEVELS // (T * k))
    for i in range(0, len(qs), step):
        part = qs[i:i + step]
        # each matrix's column-major level stream, one row per blob
        yield from _pack(np.stack([q.levels.T for q in part]).reshape(len(part), -1), bits)


def _unpacked(body: np.ndarray, offsets: np.ndarray, bits: int, T: int,
              k: int) -> Iterator[np.ndarray]:
    """The ``T x k`` levels of the blobs of one shape whose packed levels
    start at ``offsets`` of ``body``, in turn."""
    size = (T * k * bits + 7) // 8
    step = max(1, CHUNK_LEVELS // (T * k))
    for i in range(0, offsets.size, step):
        part = offsets[i:i + step].tolist()
        bodies = np.empty((len(part), size), dtype=np.uint8)
        for row, offset in zip(bodies, part):
            row[:] = body[offset:offset + size]
        yield from _unpack(bodies, T * k, bits).reshape(-1, k, T).transpose(0, 2, 1)


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
