"""Every top-level definition in ``src/stablecouple`` is one the CLI or the
benchmark runs.

The walk parses each module with ``ast``; ``__init__.py`` only re-exports,
so it is read to resolve the names imported from the package and adds no
definition or use.  It starts from:

- each module's top-level statements other than imports and definitions;
- ``cli.main``, and ``cli.cmd_<name>`` for each ``_COMMANDS`` key, which
  ``main`` dispatches through ``globals()``;
- every name the harness in ``perfbench/`` imports or reads off ``cli``.

From a reached definition it follows the Name and Attribute references of
its whole statement (decorators, bases, annotations and body), resolving
the imports between the package's modules.  A definition that no walk
reaches runs only under the tests, and belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

from stablecouple.cli import _COMMANDS

from test_perfbench_imports import _package_references

SRC = Path(__file__).resolve().parents[1] / "src" / "stablecouple"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IMPORTS = (ast.Import, ast.ImportFrom)


def _unreached() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    defs = {(mod, node.name): node for mod, tree in trees.items()
            if mod != "__init__" for node in tree.body
            if isinstance(node, _DEFS)}
    # module -> local name -> (module, name) of each relative import; a
    # module imported whole (``from . import cli``) maps to (cli, None)
    imports = {mod: {a.asname or a.name: ((node.module, a.name) if node.module
                                          else (a.name, None))
                     for node in tree.body
                     if isinstance(node, ast.ImportFrom) and node.level == 1
                     for a in node.names}
               for mod, tree in trees.items()}

    def resolve(mod, name):
        """The (module, name) of the definition ``name`` means in ``mod``."""
        while (mod, name) not in defs:
            if name not in imports.get(mod, {}):
                return None
            mod, name = imports[mod][name]
        return mod, name

    def uses(mod, tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield resolve(mod, node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)):
                whole = imports[mod].get(node.value.id)
                if whole is not None and whole[1] is None:
                    yield resolve(whole[0], node.attr)

    todo = [resolve("cli", "main")] + [resolve("cli", f"cmd_{name}")
                                       for name in _COMMANDS]
    assert None not in todo
    # "stablecouple" is the package itself, "stablecouple.lyapunov" a
    # module; a name that is no definition (a module, a constant) adds none
    todo += [resolve(module.partition(".")[2] or "__init__", name)
             for _, module, name in _package_references()]
    for mod, tree in trees.items():
        if mod != "__init__":
            for node in tree.body:
                if not isinstance(node, _DEFS + _IMPORTS):
                    todo += uses(mod, node)
    seen = set()
    while todo:
        key = todo.pop()
        if key is not None and key not in seen:
            seen.add(key)
            todo += uses(key[0], defs[key])
    return sorted(f"{mod}.{name}" for mod, name in defs.keys() - seen)


def test_every_src_definition_is_reached_from_the_cli_or_benchmark():
    assert _unreached() == []
