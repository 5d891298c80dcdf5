"""Command-line interface: serve an index, query a server, run evaluations."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import codec, service
from .descriptors import (
    SynthCorpusSpec,
    generate_corpus,
    load_corpus,
    load_descriptor_file,
    save_corpus,
)
from .evaluation import evaluate
from .matcher import ObjectIndex

SYNTH_PREFIX = "synthetic:"


def load_corpus_arg(text: str):
    """A corpus argument is a directory of descriptor files or synthetic:<spec>."""
    if text.startswith(SYNTH_PREFIX):
        return generate_corpus(SynthCorpusSpec.from_string(text[len(SYNTH_PREFIX):]))
    path = Path(text)
    if not path.is_dir():
        raise ValueError(f"corpus {text!r} is not a directory or synthetic spec")
    return load_corpus(path)


def load_index_arg(text: str, k_max: int | None, bits: int) -> ObjectIndex:
    """Index argument: prebuilt .idx file, corpus directory, or synthetic spec."""
    path = Path(text)
    if path.is_file():
        return service.read_index(path)
    return ObjectIndex(service.quantized(service.factorized(load_corpus_arg(text), k_max), bits))


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must be host:port, got {text!r}")
    return host, int(port)


def _add_common(parser: argparse.ArgumentParser, *, eta: bool = True, alpha: bool = True,
                bits: bool = True) -> None:
    """Shared options; a command leaves out those it does not read."""
    if eta:
        parser.add_argument("--eta", type=int, default=20, help="ranked list length")
    if alpha:
        parser.add_argument("--alpha", type=int, default=2, help="fusion weight")
    if bits:
        parser.add_argument("--bits", type=int, default=5, help="quantization bits")
    parser.add_argument("--k-max", type=int, default=None,
                        help="model-order scan ceiling (default: shape-derived)")


def _add_eval_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True,
                        help="descriptor directory or synthetic:<spec>")
    parser.add_argument("--top", type=int, default=20, help="max accuracy depth")
    parser.add_argument("--query-view", type=int, default=1,
                        help="1-based view index used as the query")
    parser.add_argument("--out", default=None, help="write the JSONL report here")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factormatch",
        description="Image retrieval from quantized PCA/NMF descriptor factor loadings",
    )
    # no abbreviations, so `sweep-alpha --alpha 2` is not read as `--alphas 2`
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("gen-corpus", help="write a synthetic descriptor corpus")
    p.add_argument("--spec", required=True,
                   help="objects=50,views=5,T=32,N=400,r=4,sigma=0.05,seed=1")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("build-index", help="factorize a corpus into an index file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output .idx path")
    _add_common(p, eta=False, alpha=False)

    p = sub.add_parser("serve", help="serve an index over TCP")
    p.add_argument("--index", required=True,
                   help=".idx file, descriptor directory, or synthetic:<spec>")
    p.add_argument("--listen", default="127.0.0.1:7010", help="host:port to bind")
    _add_common(p, eta=False, alpha=False)

    p = sub.add_parser("query", help="query a running server with one image")
    p.add_argument("--server", required=True, help="host:port of the server")
    p.add_argument("--descriptors", required=True, help="descriptor file (.dmt or .csv)")
    p.add_argument("--timeout", type=float, default=service.DEFAULT_TIMEOUT)
    _add_common(p)

    p = sub.add_parser("evaluate", help="leave-one-view-out accuracy of all pipelines")
    _add_eval_common(p)
    _add_common(p)

    p = sub.add_parser("sweep-alpha", help="combined accuracy across fusion weights")
    _add_eval_common(p)
    _add_common(p, alpha=False)
    p.add_argument("--alphas", default=None,
                   help="comma-separated alpha grid (default 0..eta)")

    p = sub.add_parser("sweep-bits", help="accuracy across quantization rates")
    _add_eval_common(p)
    _add_common(p, bits=False)
    p.add_argument("--grid", default="1,2,3,4,5,6,8",
                   help="comma-separated bit widths")

    p = sub.add_parser("sweep-rank", help="fixed ranks versus estimated model order")
    _add_eval_common(p)
    _add_common(p)
    p.add_argument("--ranks", default="1,2,4,8,16",
                   help="comma-separated fixed ranks")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError, service.ServerReportedError) as exc:
        # bad arguments or inputs (ValueError covers ProtocolError,
        # CodecError and DescriptorFormatError), files and the network
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    # before any corpus is generated or loaded, or an image factorized
    if getattr(args, "bits", None) is not None:
        codec.check_bits(args.bits)
    if args.command == "gen-corpus":
        corpus = generate_corpus(SynthCorpusSpec.from_string(args.spec))
        save_corpus(corpus, args.out)
        print(f"wrote {len(corpus)} descriptor files to {args.out}")
        return 0

    if args.command == "build-index":
        corpus = load_corpus_arg(args.corpus)
        records = list(service.quantized(service.factorized(corpus, args.k_max), args.bits))
        service.write_index(args.out, records)
        stored = sum(codec.blob_size(r.pca) + codec.blob_size(r.nmf) for r in records)
        print(f"indexed {len(records)} images "
              f"({stored} stored loading bytes, {stored / len(records):.0f}/image) "
              f"to {args.out}")
        return 0

    if args.command == "serve":
        endpoint = parse_endpoint(args.listen)
        index = load_index_arg(args.index, args.k_max, args.bits)
        with service.RetrievalServer(index, endpoint) as server:
            host, port = server.address
            print(f"serving {index.num_images} images / {index.num_objects} objects "
                  f"on {host}:{port}")
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
        return 0

    if args.command == "query":
        endpoint = parse_endpoint(args.server)
        m = load_descriptor_file(args.descriptors)
        ranked = service.query_remote(endpoint, m, eta=args.eta, alpha=args.alpha, bits=args.bits,
                                      k_max=args.k_max, timeout=args.timeout)
        for rank, entry in enumerate(ranked.entries, start=1):
            print(f"{rank:3d}  {entry.object_id:<24} {entry.score:.6f}")
        return 0

    # each evaluation subcommand is one evaluate call along the axes it sweeps,
    # with its reference: sweep-alpha's nmf_angle row (its alpha = eta column
    # reproduces that row where the PCA prefilter recalls the true object),
    # sweep-bits' unquantized rate and sweep-rank's estimated order
    if args.command == "evaluate":
        axes = dict(rates=[args.bits], alphas=[args.alpha])
    elif args.command == "sweep-alpha":
        alphas = _int_list(args.alphas) if args.alphas else range(args.eta + 1)
        axes = dict(rates=[args.bits], alphas=alphas, pipelines=("combined", "nmf_angle"))
    elif args.command == "sweep-bits":
        axes = dict(rates=[*_int_list(args.grid), None], alphas=[args.alpha])
    else:  # sweep-rank
        axes = dict(ranks=[*_int_list(args.ranks), None], rates=[args.bits], alphas=[args.alpha])
    report = evaluate(load_corpus_arg(args.corpus), eta=args.eta, top=args.top,
                      k_max=args.k_max, query_view=args.query_view,
                      corpus_label=args.corpus, **axes)
    print(report.summary())
    if args.out:
        Path(args.out).write_text(report.to_jsonl())
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
