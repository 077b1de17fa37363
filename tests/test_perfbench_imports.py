"""The benchmark harness still runs against the package.

The harness in ``perfbench/`` replays the CLI stages through library calls,
so a rename or deletion in ``src/`` can break it without failing any other
test.  One test walks its sources with ``ast`` and resolves each
``from stablecouple... import name`` and each ``cli.<attr>``; the other runs
its self-test, which also requires the traced replay to reproduce the
digests of the untimed CLI run.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_references():
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "stablecouple"):
                refs.update((path.name, node.module, a.name) for a in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id == "cli"):
                refs.add((path.name, "stablecouple.cli", node.attr))
    return sorted(refs)


def _resolves(module: str, name: str) -> bool:
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:  # a submodule, as in ``from stablecouple import cli``
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_perfbench_reference_resolves():
    refs = _package_references()
    # the walk itself must see the harness's imports
    modules = {module for _, module, _ in refs}
    assert {"stablecouple", "stablecouple.cli", "stablecouple.lyapunov"} <= modules
    missing = [f"{source}: {module}.{name}" for source, module, name in refs
               if not _resolves(module, name)]
    assert missing == []


def test_perfbench_self_test_passes():
    # a tiny pipeline, untimed and traced, plus a gate failure; it writes
    # only under the git-ignored .perfbench_out/
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--self-test"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
