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
