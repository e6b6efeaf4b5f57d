"""Surface guard: every public module-level function and class of the
package is used by the package itself, the benchmark or a shipped config.

A name counts as used when some code outside its own definition names it,
as an identifier or inside a string that is not a docstring (the benchmark
names several traced functions only as strings), or when a config file
holds it. Tests do not count: a name that only tests reach is either
deleted or listed below with the paper result it serves.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blocklanczos"

# Reached only by tests, and kept on purpose: each serves a paper result or
# stands as an independent oracle.
TEST_ONLY = {
    # criterion 10: the shot-sampled coefficient study's log-log slope
    "noise.sampled_energy_errors",
}

_WORD = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree):
    """The docstring nodes of a module and of every class and function."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, owners) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield first.value


def _names_used(node, skip):
    """Identifiers and string words under ``node``, docstrings skipped."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in skip):
            yield from _WORD.findall(sub.value)


def unused_public_names():
    """``module.name`` of each public top-level def or class of the package
    that no other top-level statement of ``src`` or ``benchmarks`` uses and
    no config holds."""
    modules = sorted(PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in [*modules, *sorted((ROOT / "benchmarks").glob("*.py"))]}
    uses = []
    for tree in trees.values():
        skip = {id(doc) for doc in _docstrings(tree)}
        uses += [(statement, set(_names_used(statement, skip)))
                 for statement in tree.body]
    config_words = set()
    for path in sorted((ROOT / "configs").glob("*.json")):
        config_words.update(_WORD.findall(path.read_text()))
    unused = []
    for path in modules:
        for node in trees[path].body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in config_words):
                continue
            if not any(node.name in names for statement, names in uses
                       if statement is not node):
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_name_is_used_outside_the_tests():
    assert set(unused_public_names()) == TEST_ONLY
