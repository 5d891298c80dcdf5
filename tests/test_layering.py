import ast
from pathlib import Path

import factormatch

from conftest import BENCH

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
    "matcher.rank_database": ("candidates",),
    "model_order.estimate_order": ("k_max",),
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


# Public module-level functions and classes that neither the rest of src/
# nor bench/ refers to, each with the reason it is public all the same.
TEST_ONLY: dict[str, str] = {}


def names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name ``tree`` reads, as a bare name, an attribute or, as the
    bench's tracer wraps functions, a string; ``skip``'s subtree left out."""
    used, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
        todo.extend(ast.iter_child_nodes(node))
    return used


def test_every_public_name_is_used_outside_the_tests():
    """ROADMAP aim 2's "no public API that only tests use": a name that
    only tests read is listed in ``TEST_ONLY`` on purpose."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "__init__"}
    bench = set().union(*(names_used(ast.parse(path.read_text()))
                          for path in sorted(BENCH.glob("*.py"))))
    unused = {f"{module}.{node.name}" for module, tree in modules.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in bench
              and not any(node.name in names_used(other, skip=node)
                          for other in modules.values())}
    assert unused == set(TEST_ONLY)
