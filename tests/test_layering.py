import ast
from pathlib import Path

import factormatch

PACKAGE = Path(factormatch.__file__).parent


def package_imports() -> dict[str, set[str]]:
    """Module name -> the package modules it imports with ``from .x import``
    or ``from . import x``; the package ``__init__`` is left out, since it
    imports every module to re-export them."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        edges = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    edges.add(node.module.split(".")[0])
                else:
                    edges.update(alias.name for alias in node.names)
        graph[path.stem] = edges
    return graph


def test_every_import_names_a_module():
    graph = package_imports()
    assert set().union(*graph.values()) <= set(graph)


def test_package_imports_have_no_cycle():
    graph = package_imports()
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, f"import cycle {' -> '.join((*path, module))}"
        if module in done:
            return
        for imported in sorted(graph[module]):
            visit(imported, (*path, module))
        done.add(module)

    for module in sorted(graph):
        visit(module, ())


def test_binary_is_a_leaf():
    assert package_imports()["binary"] == set()


# Every defaulted parameter of every public function, public method and
# public class __init__: a new setting is added here on purpose.
SETTINGS = {
    "cli.main": ("argv",),
    "descriptors.load_descriptors": ("fmt", "image_id", "object_id"),
    "evaluation.EvalReport.accuracy": ("top_n",),
    "evaluation.split_queries": ("query_view",),
    "evaluation.evaluate": ("ranks", "rates", "alphas", "pipelines", "eta", "top", "k_max",
                            "query_view", "corpus_label"),
    "factorization.pca_loadings": ("svd",),
    "factorization.nmf_loadings": ("seed",),
    "matcher.rank_database": ("eta", "candidates"),
    "matcher.combined_hypotheses": ("eta",),
    "matcher.QueryBatch.__init__": ("eta",),
    "matcher.retrieve_combined": ("eta", "alpha"),
    "model_order.estimate_order": ("k_max", "svd"),
    "service.factorize_image": ("k_max", "fixed_k", "svd"),
    "service.client_blobs": ("k_max",),
    "service.factorized": ("k_max",),
    "service.encode_response": ("entries", "error_text"),
    "service.RetrievalServer.__init__": ("endpoint",),
    "service.send_query": ("timeout",),
    "service.query_remote": ("eta", "alpha", "bits", "k_max", "timeout"),
}


def public_functions():
    """``(name, node)`` of every public function of each package module,
    and of every public method and ``__init__`` of its public classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and (
                            method.name == "__init__" or not method.name.startswith("_")):
                        yield f"{path.stem}.{node.name}.{method.name}", method


def defaulted(function: ast.FunctionDef) -> tuple[str, ...]:
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    return (*(a.arg for a in positional[len(positional) - len(args.defaults):]),
            *(a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None))


def test_settings_census():
    found = {name: defaulted(f) for name, f in public_functions()}
    assert {name: params for name, params in found.items() if params} == SETTINGS
