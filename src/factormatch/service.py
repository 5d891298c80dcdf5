"""Client/server retrieval over a length-prefixed binary protocol.

The server owns an :class:`~factormatch.matcher.ObjectIndex` and answers
queries that carry quantized PCA and NMF loading blobs; the client runs the
full extraction pipeline (model order, both factorizations, quantization)
and ships the blobs. Transport is a plain TCP stream of frames:

    frame    := u32 length (little-endian) | payload
    query    := "QRY1" | u8 version=1 | u16 eta | u16 alpha
                | u32 len | pca QFL1 blob | u32 len | nmf QFL1 blob
    response := "RSP1" | u8 status | u16 count
                | count * (u16 id_len | object_id | f32 score | u16 rank)
                | u16 err_len | error_text

Status 0 = ok, 1 = malformed frame, 2 = invalid parameters (including blobs
that are not PCA then NMF of one rank, of another descriptor dimension T
than the index's, or of a rank above T), 3 = query failed.
A bad query never kills the connection; only an oversized declared frame
closes it (the stream can no longer be trusted).
"""

from __future__ import annotations

import socket
import socketserver
import struct
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from . import codec, factorization
from .binary import Reader, blob, text
from .codec import QuantizedLoadings
from .descriptors import DescriptorMatrix
from .factorization import KIND_NMF, KIND_PCA, FactorLoadings, nmf_loadings, pca_loadings
from .fusion import RankedEntry, RankedList
from .matcher import ObjectIndex, retrieve_combined
from .model_order import estimate_order

QUERY_MAGIC = b"QRY1"
RESPONSE_MAGIC = b"RSP1"
INDEX_MAGIC = b"IDX1"
PROTOCOL_VERSION = 1

STATUS_OK = 0
STATUS_MALFORMED = 1
STATUS_INVALID_PARAMS = 2
STATUS_QUERY_FAILED = 3

DEFAULT_MAX_FRAME = 1 << 20  # 1 MiB
DEFAULT_TIMEOUT = 30.0


class ProtocolError(ValueError):
    """Raised when a frame payload does not parse."""


class ServerReportedError(RuntimeError):
    """Raised client-side when the server answers with a non-zero status."""

    def __init__(self, status: int, message: str):
        super().__init__(f"server status {status}: {message}")
        self.status = status


# --- index construction ---------------------------------------------------


def nmf_seed(image_id: str, base_seed: int = 0) -> int:
    """Stable per-image NMF seed (crc32 of the id mixed with a base seed)."""
    return (zlib.crc32(image_id.encode("utf-8")) ^ (base_seed & 0xFFFFFFFF)) & 0xFFFFFFFF


def factorize_image(
    m: DescriptorMatrix,
    k_max: int | None = None,
    base_seed: int = 0,
    fixed_k: int | None = None,
) -> tuple[FactorLoadings, FactorLoadings, int]:
    """Both loadings of one image from one SVD, at its estimated model order
    or at ``fixed_k`` (capped at the matrix rank)."""
    # through the module, so a wrapper on factorization.compute_svd sees it
    svd = factorization.compute_svd(m)
    if fixed_k is None:
        k = estimate_order(m, k_max, svd=svd).k_star
    else:
        k = min(fixed_k, m.T, m.N)
    pca, _ = pca_loadings(m, k, svd=svd)
    nmf, _, _ = nmf_loadings(m, k, seed=nmf_seed(m.image_id, base_seed))
    return pca, nmf, k


def stored_loadings(f: FactorLoadings, bits: int | None) -> FactorLoadings:
    """Loadings as the server holds them after a ``bits``-bit upload;
    ``bits=None`` keeps full precision (reference mode)."""
    return f if bits is None else codec.dequantize(codec.quantize(f, bits))


def client_blobs(
    m: DescriptorMatrix,
    bits: int,
    k_max: int | None = None,
    base_seed: int = 0,
) -> tuple[QuantizedLoadings, QuantizedLoadings]:
    """Client-side pipeline: model order, factorize, quantize both loadings."""
    pca, nmf, _ = factorize_image(m, k_max, base_seed)
    return codec.quantize(pca, bits), codec.quantize(nmf, bits)


@dataclass(frozen=True)
class IndexRecord:
    """One stored image: object id plus the two quantized loading blobs."""

    object_id: str
    pca: QuantizedLoadings
    nmf: QuantizedLoadings


def quantized_records(
    corpus: Sequence[DescriptorMatrix],
    k_max: int | None = None,
    bits: int = 5,
    base_seed: int = 0,
) -> list[IndexRecord]:
    """Factorize and quantize every corpus image for storage."""
    return [IndexRecord(m.object_id, *client_blobs(m, bits, k_max, base_seed))
            for m in corpus]


def factorized(
    corpus: Iterable[DescriptorMatrix],
    k_max: int | None = None,
    base_seed: int = 0,
    fixed_k: int | None = None,
) -> Iterator[tuple[str, FactorLoadings, FactorLoadings]]:
    """``(object_id, pca, nmf)`` of each image, factorized as it is consumed."""
    for m in corpus:
        pca, nmf, _ = factorize_image(m, k_max, base_seed, fixed_k)
        yield m.object_id, pca, nmf


def index_from_loadings(
    images: Iterable[tuple[str, FactorLoadings, FactorLoadings]], bits: int | None = None
) -> ObjectIndex:
    """Index of ``(object_id, pca, nmf)`` triples as the server holds them
    after ``bits``-bit uploads (``bits=None``: full precision), handed to
    the :class:`ObjectIndex` constructor quantized; it checks each image."""
    if bits is None:
        return ObjectIndex(images)
    return ObjectIndex((object_id, codec.quantize(pca, bits), codec.quantize(nmf, bits))
                       for object_id, pca, nmf in images)


def build_index(
    corpus: Sequence[DescriptorMatrix],
    k_max: int | None = None,
    bits: int | None = 5,
    base_seed: int = 0,
) -> ObjectIndex:
    """Build the in-memory database from a descriptor corpus.

    Stored loadings go through the ``bits``-bit quantize/dequantize round
    trip, mirroring what a server reading quantized uploads would hold;
    ``bits=None`` keeps full precision (reference mode).
    """
    if not corpus:
        raise ValueError("corpus is empty")
    return index_from_loadings(factorized(corpus, k_max, base_seed), bits)


# --- wire encoding --------------------------------------------------------


def encode_query(eta: int, alpha: int, pca_blob: bytes, nmf_blob: bytes) -> bytes:
    return (QUERY_MAGIC + struct.pack("<BHH", PROTOCOL_VERSION, eta, alpha)
            + blob(pca_blob) + blob(nmf_blob))


def decode_query(payload: bytes) -> tuple[int, int, int, bytes, bytes]:
    """Split a query payload into (version, eta, alpha, pca_blob, nmf_blob)."""
    r = Reader(payload, QUERY_MAGIC, "query", ProtocolError)
    version, eta, alpha = r.unpack("BHH", "header")
    pca_blob, nmf_blob = r.blob("pca blob"), r.blob("nmf blob")
    r.end("query")
    return version, eta, alpha, pca_blob, nmf_blob


def encode_response(
    status: int,
    entries: Sequence[tuple[str, float]] = (),
    error_text: str = "",
) -> bytes:
    out = bytearray(RESPONSE_MAGIC + struct.pack("<BH", status, len(entries)))
    for rank, (object_id, score) in enumerate(entries, start=1):
        out += text(object_id) + struct.pack("<fH", score, rank)
    out += text(error_text)
    return bytes(out)


def decode_response(payload: bytes) -> tuple[int, list[tuple[str, float, int]], str]:
    """Split a response payload into (status, [(object_id, score, rank)], error)."""
    r = Reader(payload, RESPONSE_MAGIC, "response", ProtocolError)
    status, count = r.unpack("BH", "header")
    entries = []
    for _ in range(count):
        object_id = r.text("object id")
        score, rank = r.unpack("fH", "score and rank")
        entries.append((object_id, float(score), rank))
    error_text = r.text("error text")
    r.end("response")
    return status, entries, error_text


def write_frame(stream: BinaryIO, payload: bytes) -> None:
    stream.write(blob(payload))
    stream.flush()


def read_frame(stream: BinaryIO, max_frame: int = DEFAULT_MAX_FRAME) -> bytes | None:
    """Read one length-prefixed frame from a buffered stream (whose
    ``read(n)`` returns short only at EOF); None on clean EOF at a frame
    boundary."""
    header = stream.read(4)
    if not header:
        return None
    if len(header) < 4:
        raise ProtocolError("stream ended inside a frame header")
    (length,) = struct.unpack("<I", header)
    if length > max_frame:
        raise ProtocolError(f"frame of {length} bytes exceeds limit {max_frame}")
    payload = stream.read(length)
    if len(payload) < length:
        raise ProtocolError("stream ended inside a frame payload")
    return payload


# --- index persistence ----------------------------------------------------


def write_index(path: str | Path, records: Sequence[IndexRecord]) -> None:
    """Persist quantized records: ``IDX1`` | u32 count | per image
    (u16 obj_len | object_id | u32 len | pca blob | u32 len | nmf blob)."""
    out = bytearray(INDEX_MAGIC + struct.pack("<I", len(records)))
    blobs = codec.encode_many([q for rec in records for q in (rec.pca, rec.nmf)])
    for rec in records:
        out += text(rec.object_id) + blob(next(blobs)) + blob(next(blobs))
    Path(path).write_bytes(out)


def read_index(path: str | Path) -> ObjectIndex:
    """Load a :func:`write_index` file; a short, overlong or otherwise
    malformed file, or records that do not form one index (a duplicated
    image id, blobs of two images in one record, mixed descriptor
    dimensions), raise :class:`ProtocolError` or
    ``codec.CodecError``.

    Every record and blob is checked, in file order, before any image is
    handed to the index; ``codec.unpack_many`` then unpacks the levels."""
    data = Path(path).read_bytes()
    r = Reader(data, INDEX_MAGIC, "index file", ProtocolError)
    (count,) = r.unpack("I", "image count")
    object_ids: list[str] = []
    image_ids: list[str] = []  # per blob; an NMF blob of its PCA blob's image shares its str
    kinds: list[str] = []
    blobs = array("q")  # per blob: bits, T, k, offset of its packed levels
    for _ in range(count):
        object_ids.append(r.text("object id"))
        for field in ("pca blob", "nmf blob"):
            kind, bits, T, k, image_id, body = codec.parse(r.blob(field))
            image_ids.append(image_ids[-1] if field == "nmf blob" and image_id == image_ids[-1]
                             else image_id)
            kinds.append(kind)
            blobs.extend((bits, T, k, r.pos - len(body)))
    r.end(f"{count} index records")
    table = np.frombuffer(blobs, dtype=np.int64).reshape(-1, 4)
    levels = codec.unpack_many(data, table)
    del r, data  # the unpacker drops the file once it is exhausted

    def loadings() -> Iterator[QuantizedLoadings]:
        for matrix, image_id, kind, row in zip(levels, image_ids, kinds, table):
            bits, T, k, _ = row.tolist()
            yield QuantizedLoadings(image_id, kind, T, k, bits, *codec.kind_range(kind), matrix)

    blob_loadings = loadings()
    try:
        # the loadings first, so zip exhausts them, and the unpacker, at the end
        return ObjectIndex((object_id, pca, nmf) for pca, nmf, object_id
                           in zip(blob_loadings, blob_loadings, object_ids))
    except ValueError as exc:  # records that do not form one index
        raise ProtocolError(f"invalid index file: {exc}") from None


# --- server ---------------------------------------------------------------


def answer_query(index: ObjectIndex, payload: bytes) -> bytes:
    """Process one query payload into a response payload; the response
    depends only on the index's loadings and the payload."""
    try:
        version, eta, alpha, pca_blob, nmf_blob = decode_query(payload)
        query_pca = codec.dequantize(codec.decode(pca_blob))
        query_nmf = codec.dequantize(codec.decode(nmf_blob))
    except (ProtocolError, codec.CodecError) as exc:
        return encode_response(STATUS_MALFORMED, error_text=f"malformed frame: {exc}")
    if version != PROTOCOL_VERSION:
        invalid = f"unsupported protocol version {version}"
    elif eta < 1 or alpha > eta:
        invalid = f"invalid parameters: eta={eta}, alpha={alpha}"
    elif query_pca.T != query_nmf.T:
        invalid = f"blob descriptor dims differ: {query_pca.T} vs {query_nmf.T}"
    elif query_pca.T != index.T:
        invalid = f"query descriptor dim {query_pca.T} differs from the index's {index.T}"
    elif (query_pca.kind, query_nmf.kind) != (KIND_PCA, KIND_NMF) or query_pca.k != query_nmf.k:
        invalid = (f"blobs must be pca then nmf of one rank, got {query_pca.kind} "
                   f"k={query_pca.k} and {query_nmf.kind} k={query_nmf.k}")
    elif query_pca.k > index.T:  # bounds the k x Σk correlation matrix
        invalid = f"query rank {query_pca.k} exceeds the descriptor dim {index.T}"
    else:
        invalid = ""
    if invalid:
        return encode_response(STATUS_INVALID_PARAMS, error_text=invalid)
    try:
        ranked = retrieve_combined(query_pca, query_nmf, index, eta=eta, alpha=alpha)
    except Exception as exc:  # noqa: BLE001 - reported to the client, not fatal
        return encode_response(STATUS_QUERY_FAILED, error_text=f"query failed: {exc}")
    return encode_response(
        STATUS_OK, [(e.object_id, e.score) for e in ranked.entries]
    )


class _Handler(socketserver.StreamRequestHandler):
    server: RetrievalServer

    def handle(self) -> None:
        while True:
            try:
                payload = read_frame(self.rfile, self.server.max_frame)
            except ProtocolError as exc:
                # Oversized or truncated stream: report and drop the
                # connection, since frame boundaries are lost.
                try:
                    write_frame(self.wfile, encode_response(
                        STATUS_MALFORMED, error_text=f"malformed frame: {exc}"))
                except OSError:
                    pass
                return
            if payload is None:
                return
            try:
                write_frame(self.wfile, answer_query(self.server.index, payload))
            except OSError:
                return


class RetrievalServer(socketserver.ThreadingTCPServer):
    """TCP server answering framed queries against ``index``, one daemon
    thread per connection, until ``shutdown()``; ``serve_forever()`` blocks
    the calling thread. Use as a context manager or call
    ``server_close()``."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        index: ObjectIndex,
        endpoint: tuple[str, int] = ("127.0.0.1", 0),
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        super().__init__(endpoint, _Handler)
        self.index = index
        self.max_frame = max_frame

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)


# --- client ---------------------------------------------------------------


def send_query(
    endpoint: tuple[str, int],
    pca_blob: bytes,
    nmf_blob: bytes,
    eta: int,
    alpha: int,
    timeout: float = DEFAULT_TIMEOUT,
) -> tuple[int, list[tuple[str, float, int]], str]:
    """Send prebuilt blobs; returns the raw (status, entries, error) triple."""
    payload = encode_query(eta, alpha, pca_blob, nmf_blob)
    with (socket.create_connection(endpoint, timeout=timeout) as sock,
          sock.makefile("rwb") as stream):
        write_frame(stream, payload)
        response = read_frame(stream)
    if response is None:
        raise ProtocolError("server closed the connection without responding")
    return decode_response(response)


def query_remote(
    endpoint: tuple[str, int],
    m: DescriptorMatrix,
    eta: int = 20,
    alpha: int = 2,
    bits: int = 5,
    k_max: int | None = None,
    base_seed: int = 0,
    timeout: float = DEFAULT_TIMEOUT,
) -> RankedList:
    """Full client pipeline: factorize, quantize, upload, parse the ranking.

    The response carries object metadata only, so entries come back with an
    empty ``image_id``.
    """
    q_pca, q_nmf = client_blobs(m, bits, k_max, base_seed)
    status, entries, error_text = send_query(
        endpoint, codec.encode(q_pca), codec.encode(q_nmf), eta, alpha, timeout
    )
    if status != STATUS_OK:
        raise ServerReportedError(status, error_text)
    return RankedList(
        entries=tuple(RankedEntry(obj, "", score) for obj, score, _ in entries),
        eta=eta,
    )
