"""Surface guard: every public module-level function and class of the
package, and every public method, property and classmethod of a public
class, is used by the package itself, the benchmark or a shipped config.

A top-level name counts as used when some code outside its own definition
names it, as an identifier or inside a string that is not a docstring (the
benchmark names several traced functions only as strings), or when a config
file holds it. A class member counts as used when some code outside its own
definition reads it as an attribute (``.name``); a bare identifier of the
same name, such as a parameter, does not. Tests do not count: a name that
only tests reach is either deleted or listed below with the paper result it
serves.
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
    # criteria 6 and 8's prefix-by-prefix Ritz histories; the per-prefix
    # residual record planned for run telemetry builds on it
    "scalar.BlockCoefficients.prefix",
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


def _parse():
    """The package's module paths, and the syntax tree of each module of
    ``src`` and ``benchmarks`` by path."""
    modules = sorted(PACKAGE.glob("*.py"))
    return modules, {path: ast.parse(path.read_text())
                     for path in [*modules, *sorted((ROOT / "benchmarks").glob("*.py"))]}


def unused_public_names():
    """``module.name`` of each public top-level def or class of the package
    that no other top-level statement of ``src`` or ``benchmarks`` uses and
    no config holds."""
    modules, trees = _parse()
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


def unused_public_members():
    """``module.Class.member`` of each public method, property or
    classmethod of a public top-level class of the package that no code of
    ``src`` or ``benchmarks`` outside its own definition reads as an
    attribute."""
    modules, trees = _parse()
    attributes = [sub for tree in trees.values() for sub in ast.walk(tree)
                  if isinstance(sub, ast.Attribute)]
    members = []
    for path in modules:
        for node in trees[path].body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members += [(f"{path.stem}.{node.name}.{member.name}", member)
                            for member in node.body
                            if isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")]
    unused = []
    for qualified, member in members:
        own = {id(sub) for sub in ast.walk(member)}
        if not any(sub.attr == member.name and id(sub) not in own
                   for sub in attributes):
            unused.append(qualified)
    return unused


def test_every_public_name_is_used_outside_the_tests():
    assert set(unused_public_names()) | set(unused_public_members()) == TEST_ONLY
