"""Fixed-rate scalar quantization of factor loadings and bit-exact blobs.

The quantizer is uniform over a range fixed per loading kind — ``[-1, 1]``
for PCA, ``[0, 1]`` for NMF — which unit-norm columns guarantee, so no side
information travels with the payload. ``b`` bits give ``2^b - 1`` steps with
both endpoints representable.

Blob layout (little-endian): magic ``QFL1``, u8 kind (0=PCA, 1=NMF), u8 b,
u16 T, u16 k, f32 lo, f32 hi, u16 id length + UTF-8 image id, then
``ceil(T*k*b/8)`` bytes of levels packed column-major, LSB-first within each
byte, the padding bits of the last byte zero.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .binary import Reader, text
from .factorization import KIND_NMF, KIND_PCA, FactorLoadings

BLOB_MAGIC = b"QFL1"
_KIND_CODE = {KIND_PCA: 0, KIND_NMF: 1}
_CODE_KIND = {0: KIND_PCA, 1: KIND_NMF}
RANGE_SLACK = 1e-9


class CodecError(ValueError):
    """Raised when a quantized-loadings blob cannot be decoded."""


def kind_range(kind: str) -> tuple[float, float]:
    if kind == KIND_PCA:
        return -1.0, 1.0
    if kind == KIND_NMF:
        return 0.0, 1.0
    raise ValueError(f"unknown loadings kind {kind!r}")


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
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if (self.lo, self.hi) != kind_range(self.kind):
            raise ValueError(
                f"{self.kind} quantizer range must be {kind_range(self.kind)}, "
                f"got [{self.lo}, {self.hi}]"
            )
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


def lattice_values(q: QuantizedLoadings) -> np.ndarray:
    """Raw reconstruction ``lo + level * step`` (no renormalization)."""
    return q.lo + q.levels.astype(np.float64) * q.step


def dequantize(q: QuantizedLoadings) -> FactorLoadings:
    """Reconstruct loadings from levels, each column rescaled back to unit
    norm (downstream metrics assume it). An all-zero column (possible for
    coarse NMF quantization) has no norm to restore and is left as zeros;
    the matcher flags it when the loadings are actually used.
    :func:`lattice_values` gives the exact lattice values, for which
    ``quantize`` is the exact inverse.
    """
    x = lattice_values(q)
    norms = np.linalg.norm(x, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    x = x / safe
    return FactorLoadings(image_id=q.image_id, kind=q.kind, columns=x)


def encode(q: QuantizedLoadings) -> bytes:
    """Serialize to the QFL1 blob format (bit-exact inverse of :func:`decode`)."""
    header = BLOB_MAGIC + struct.pack(
        "<BBHHff", _KIND_CODE[q.kind], q.bits, q.T, q.k, q.lo, q.hi) + text(q.image_id)
    # column-major level stream, each level contributing `bits` bits LSB-first
    flat = q.levels.flatten(order="F").astype(np.uint32)
    bit_matrix = ((flat[:, None] >> np.arange(q.bits)) & 1).astype(np.uint8)
    packed = np.packbits(bit_matrix.ravel(), bitorder="little")
    return header + packed.tobytes()


def decode(data: bytes) -> QuantizedLoadings:
    """Parse a QFL1 blob back into :class:`QuantizedLoadings`; any blob that
    is not exactly one well-formed QFL1 blob raises :class:`CodecError`."""
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
    body = np.frombuffer(r.take((n_bits + 7) // 8, "levels"), dtype=np.uint8)
    r.end("the levels")
    if n_bits % 8 and body[-1] >> (n_bits % 8):
        raise CodecError("nonzero padding bits after the levels")
    # level i occupies bits [i * bits, (i + 1) * bits) of the body, LSB-first;
    # with bits <= 16 that is a window of at most three bytes
    padded = np.concatenate([body, np.zeros(2, dtype=np.uint8)]).astype(np.uint32)
    start = np.arange(T * k, dtype=np.int64) * bits
    byte = start >> 3
    window = padded[byte] | (padded[byte + 1] << 8) | (padded[byte + 2] << 16)
    flat = (window >> (start & 7).astype(np.uint32)) & np.uint32((1 << bits) - 1)
    levels = flat.reshape((T, k), order="F")
    try:
        return QuantizedLoadings(
            image_id=image_id, kind=_CODE_KIND[kind_code], T=T, k=k,
            bits=bits, lo=float(lo), hi=float(hi), levels=levels,
        )
    except ValueError as exc:  # e.g. a quantizer range other than the kind's
        raise CodecError(str(exc)) from None
