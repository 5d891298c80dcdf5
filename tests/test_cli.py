import argparse
import dataclasses
import json
import socketserver

import pytest

from factormatch import cli, service
from factormatch.cli import main
from factormatch.descriptors import SynthCorpusSpec, generate_corpus, save_corpus
from factormatch.evaluation import evaluate
from factormatch.service import read_index

from conftest import serve

SPEC = "objects=4,views=3,T=16,N=80,r=3,sigma=0.02,seed=13"


def test_gen_corpus_and_evaluate(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert main(["gen-corpus", "--spec", SPEC, "--out", str(corpus_dir)]) == 0
    assert len(list(corpus_dir.glob("*.dmt"))) == 12

    out = tmp_path / "report.jsonl"
    code = main([
        "evaluate", "--corpus", str(corpus_dir), "--eta", "3", "--alpha", "1",
        "--bits", "5", "--top", "3", "--k-max", "8", "--out", str(out),
    ])
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines[0]["type"] == "header"
    records = [ln for ln in lines if ln.get("type") == "record"]
    assert {r["pipeline"] for r in records} == {
        "pca_corr", "pca_angle", "nmf_corr", "nmf_angle", "combined"}
    summary = capsys.readouterr().out
    assert "pipeline" in summary


def test_evaluate_accepts_synthetic_spec(tmp_path):
    assert main([
        "evaluate", "--corpus", f"synthetic:{SPEC}", "--eta", "3",
        "--top", "2", "--k-max", "8",
    ]) == 0


def test_build_index_and_query_round_trip(tmp_path, capsys):
    idx_path = tmp_path / "db.idx"
    assert main([
        "build-index", "--corpus", f"synthetic:{SPEC}", "--out", str(idx_path),
        "--bits", "5", "--k-max", "8",
    ]) == 0
    index = read_index(idx_path)
    assert index.num_images == 12

    corpus_dir = tmp_path / "corpus"
    main(["gen-corpus", "--spec", SPEC, "--out", str(corpus_dir)])
    query_file = sorted(corpus_dir.glob("*.dmt"))[0]
    capsys.readouterr()  # drop build/gen output

    with serve(index) as server:
        host, port = server.address
        code = main([
            "query", "--server", f"{host}:{port}",
            "--descriptors", str(query_file),
            "--eta", "3", "--alpha", "1", "--bits", "5", "--k-max", "8",
        ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].strip().startswith("1")
    assert "obj0000" in out  # self view ranks its own object first


def test_build_index_reports_the_stored_loading_bytes(tmp_path, capsys):
    idx_path = tmp_path / "db.idx"
    assert main(["build-index", "--corpus", f"synthetic:{SPEC}", "--out", str(idx_path),
                 "--bits", "5", "--k-max", "8"]) == 0
    assert capsys.readouterr().out == (
        f"indexed 12 images (1440 stored loading bytes, 120/image) to {idx_path}\n")
    # the file is the blobs plus the IDX1 framing: magic, count, and per
    # record the object id with its u16 length and two u32 blob lengths
    ids = sum(len(obj.encode("utf-8")) for obj in read_index(idx_path)._object_ids)
    assert idx_path.stat().st_size == 1440 + 8 + ids + 12 * (2 + 4 + 4)


def test_sweep_subcommands(tmp_path):
    args = ["--corpus", f"synthetic:{SPEC}", "--eta", "3", "--top", "2",
            "--k-max", "8"]
    assert main(["sweep-alpha", *args, "--alphas", "0,1,3"]) == 0
    assert main(["sweep-bits", *args, "--grid", "2,5"]) == 0
    assert main(["sweep-rank", *args, "--ranks", "1,3"]) == 0


@pytest.mark.parametrize("argv, axes", [
    (["evaluate", "--alpha", "1", "--bits", "4"], {"rates": (4,), "alphas": (1,)}),
    (["sweep-alpha", "--bits", "4"],
     {"rates": (4,), "alphas": range(4), "pipelines": ("combined", "nmf_angle")}),
    (["sweep-alpha", "--alphas", "3,0"],
     {"alphas": (3, 0), "pipelines": ("combined", "nmf_angle")}),
    (["sweep-bits", "--alpha", "1", "--grid", "2,5"], {"rates": (2, 5, None), "alphas": (1,)}),
    (["sweep-rank", "--bits", "4", "--ranks", "3,1"], {"ranks": (3, 1, None), "rates": (4,)}),
], ids=["evaluate", "sweep-alpha", "sweep-alpha-grid", "sweep-bits", "sweep-rank"])
def test_evaluation_commands_write_the_report_of_evaluate(argv, axes, tmp_path):
    out = tmp_path / "report.jsonl"
    corpus = f"synthetic:{SPEC}"
    assert main([*argv, "--corpus", corpus, "--eta", "3", "--top", "2", "--k-max", "8",
                 "--query-view", "2", "--out", str(out)]) == 0
    expected = evaluate(generate_corpus(SynthCorpusSpec.from_string(SPEC)), eta=3, top=2,
                        k_max=8, query_view=2, corpus_label=corpus, **axes)
    assert out.read_text() == expected.to_jsonl()


def test_bad_corpus_argument(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["evaluate", "--corpus", str(missing), "--eta", "3"]) == 2
    assert capsys.readouterr().err == (
        f"factormatch: error: corpus {str(missing)!r} is not a directory or synthetic spec\n")


@pytest.mark.parametrize("argv, endpoint", [
    (["serve", "--index", "{missing}", "--listen", "localhost"], "localhost"),
    (["query", "--server", "nohost", "--descriptors", "{missing}"], "nohost"),
    (["query", "--server", "host:port", "--descriptors", "{missing}"], "host:port"),
], ids=["listen", "server", "port"])
def test_bad_endpoint_argument(argv, endpoint, tmp_path, capsys):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"factormatch: error: endpoint must be host:port, got {endpoint!r}\n")


def test_build_index_rejects_an_object_id_too_long_to_store(tmp_path, capsys):
    corpus = generate_corpus(SynthCorpusSpec.from_string(SPEC))
    corpus[0] = dataclasses.replace(corpus[0], object_id="o" * 70_000)
    save_corpus(corpus, tmp_path / "corpus")
    out = tmp_path / "db.idx"
    assert main(["build-index", "--corpus", str(tmp_path / "corpus"), "--out", str(out),
                 "--k-max", "8"]) == 2
    assert "70000 bytes" in capsys.readouterr().err
    assert not out.exists()


def test_serve_rejects_an_object_id_too_long_to_send(tmp_path, monkeypatch, capsys):
    # a corpus directory is indexed in memory, never through write_index
    corpus = generate_corpus(SynthCorpusSpec.from_string(SPEC))
    corpus[0] = dataclasses.replace(corpus[0], object_id="o" * 70_000)
    save_corpus(corpus, tmp_path / "corpus")

    def serve_forever(self, poll_interval=0.5):
        raise AssertionError("served an index it cannot answer from")

    monkeypatch.setattr(socketserver.BaseServer, "serve_forever", serve_forever)
    assert main(["serve", "--index", str(tmp_path / "corpus"), "--k-max", "8",
                 "--listen", "127.0.0.1:0"]) == 2
    assert "object id of 70000 bytes exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep-bits", "--grid", "1,x"], "invalid literal for int()"),
    (["sweep-rank", "--ranks", "0"], "fixed ranks must be positive"),
    (["sweep-bits", "--grid", "5,5"], "rates must be non-empty without repeats"),
    (["sweep-alpha", "--alphas", "1,1"], "alphas must be non-empty without repeats"),
    (["sweep-rank", "--ranks", "2,2"], "ranks must be non-empty without repeats"),
    (["evaluate", "--eta", "0"], "eta must be >= 1"),
    (["evaluate", "--bits", "0"], "bits must lie in 1..16"),
    (["evaluate", "--alpha", "30"], "alphas must lie in [0, 20]"),
    (["evaluate", "--query-view", "9"], "no image has view index 9"),
    (["evaluate", "--corpus", "synthetic:objects=4,views=3"], "corpus spec missing"),
    (["evaluate", "--corpus", f"synthetic:{SPEC.replace('seed=13', 'seed=abc')}"],
     "corpus spec key 'seed': 'abc' is not a number"),
    (["evaluate", "--corpus", "synthetic:objects=2,views=2,T=8,N=20,r=2,sigma=0.01,seed=1",
      "--k-max", "99"], "k_max=99 out of range [1, 8]"),
    (["serve", "--index", "{not_an_index}"], "bad index file magic"),
], ids=["grid", "ranks", "grid_repeat", "alphas_repeat", "ranks_repeat", "eta", "bits",
        "alpha", "query_view", "spec", "spec_number", "k_max", "index"])
def test_bad_arguments_are_reported_without_a_traceback(argv, message, tmp_path, capsys):
    not_an_index = tmp_path / "db.txt"
    not_an_index.write_text("not an index\n")
    if argv[0] != "serve" and "--corpus" not in argv:
        argv = [*argv, "--corpus", f"synthetic:{SPEC}", "--k-max", "8"]
    argv = [arg.format(not_an_index=not_an_index) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("factormatch: error: ")
    assert message in err


@pytest.mark.parametrize("argv", [
    ["build-index", "--corpus", f"synthetic:{SPEC}", "--out", "{tmp}/db.idx", "--bits", "0"],
    ["serve", "--index", f"synthetic:{SPEC}", "--listen", "127.0.0.1:0", "--bits", "0"],
    ["query", "--server", "127.0.0.1:1", "--descriptors", "{tmp}/q.dmt", "--bits", "17"],
    ["evaluate", "--corpus", f"synthetic:{SPEC}", "--bits", "0"],
    ["sweep-alpha", "--corpus", f"synthetic:{SPEC}", "--bits", "17"],
    ["sweep-rank", "--corpus", f"synthetic:{SPEC}", "--bits", "-1"],
], ids=["build-index", "serve", "query", "evaluate", "sweep-alpha", "sweep-rank"])
def test_bits_checked_before_any_corpus_is_read(argv, tmp_path, monkeypatch, capsys):
    factorized = []
    monkeypatch.setattr(service, "factorize_image", lambda *a, **kw: factorized.append(a))
    for name in ("load_corpus_arg", "load_index_arg", "load_descriptor_file"):
        monkeypatch.setattr(cli, name, lambda *a, **kw: pytest.fail(f"{argv[0]} read its input"))
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert factorized == []
    assert "bits must lie in 1..16, got " + argv[-1] in capsys.readouterr().err


def test_gen_corpus_rejects_a_non_finite_sigma(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--spec", SPEC.replace("sigma=0.02", "sigma=nan"),
                 "--out", str(out)]) == 2
    assert "view_noise_sigma must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["build-index", "--corpus", "c", "--out", "o", "--eta", "3"],
    ["build-index", "--corpus", "c", "--out", "o", "--alpha", "1"],
    ["serve", "--index", "i", "--eta", "3"],
    ["serve", "--index", "i", "--alpha", "1"],
    ["sweep-alpha", "--corpus", "c", "--alpha", "1"],
    ["sweep-bits", "--corpus", "c", "--bits", "5"],
])
def test_options_the_command_does_not_read_are_rejected(argv, monkeypatch):
    def loaded(*_args):
        raise AssertionError(f"{argv[0]} accepted {argv[-2]}")
    monkeypatch.setattr(cli, "load_corpus_arg", loaded)
    monkeypatch.setattr(cli, "load_index_arg", loaded)
    with pytest.raises(SystemExit):
        main(argv)


def test_serve_runs_one_accept_loop(monkeypatch, capsys):
    loops = []

    def serve_forever(self, poll_interval=0.5):
        loops.append(self)
        raise KeyboardInterrupt

    monkeypatch.setattr(socketserver.BaseServer, "serve_forever", serve_forever)
    assert main(["serve", "--index", f"synthetic:{SPEC}", "--k-max", "8",
                 "--listen", "127.0.0.1:0"]) == 0
    assert len(loops) == 1
    assert "serving 12 images / 4 objects on 127.0.0.1:" in capsys.readouterr().out


_EVAL = {"--corpus", "--top", "--query-view", "--out", "--eta", "--k-max"}
# Every option of every subcommand: a new one is added here on purpose.
OPTIONS = {
    "gen-corpus": {"--spec", "--out"},
    "build-index": {"--corpus", "--out", "--bits", "--k-max"},
    "serve": {"--index", "--listen", "--bits", "--k-max"},
    "query": {"--server", "--descriptors", "--timeout", "--eta", "--alpha", "--bits",
              "--k-max"},
    "evaluate": _EVAL | {"--alpha", "--bits"},
    "sweep-alpha": _EVAL | {"--bits", "--alphas"},
    "sweep-bits": _EVAL | {"--alpha", "--grid"},
    "sweep-rank": _EVAL | {"--alpha", "--bits", "--ranks"},
}


def test_option_census():
    def options(parser):
        return {opt for action in parser._actions for opt in action.option_strings
                if opt not in ("-h", "--help")}

    parser = cli._parser()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert options(parser) == set()
    assert {name: options(p) for name, p in commands.items()} == OPTIONS
