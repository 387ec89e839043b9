"""The package ships only code that a command or the benchmark runs.

An AST scan of ``src/avenas``: every top-level function and class, and every
method, must be named somewhere other than its own definition, in
``src/avenas`` (the exports of ``avenas/__init__.py`` included) or in
``perfbench/``. A definition that only tests reach belongs in
``tests/helpers.py``. Dunder methods are called by the language and are
exempt; ``perfbench/`` also names what it patches as strings, so its
identifier-like string constants count as names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _references(path, with_strings):
    """(name, ids of the enclosing definitions) for every name in a file."""
    refs = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name):
            refs.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, enclosing))
        elif isinstance(node, ast.alias):
            refs.append((node.name.rpartition(".")[2], enclosing))
        elif (with_strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            refs.append((node.value, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    tree = ast.parse(path.read_text(), filename=str(path))
    visit(tree, frozenset())
    return tree, refs


def _definitions(tree, module):
    """(qualified name, node) of each top-level function or class and each
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item


def unreferenced_definitions():
    trees, refs = {}, []
    for path in sorted((ROOT / "src" / "avenas").glob("*.py")):
        trees[path.stem], file_refs = _references(path, with_strings=False)
        refs += file_refs
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs += _references(path, with_strings=True)[1]
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module):
            if not any(name == node.name and id(node) not in enclosing
                       for name, enclosing in refs):
                unused.append(qualname)
    return unused


def test_every_library_definition_is_named_outside_itself():
    assert unreferenced_definitions() == []
