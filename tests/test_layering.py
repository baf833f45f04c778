import ast
import os
import subprocess
import sys
from pathlib import Path

import flexjoint


def _scipy_modules_after(imports: str) -> str:
    """The sorted scipy* entries of sys.modules after a fresh interpreter
    runs `import <imports>`, as printed."""
    code = ("import sys\n"
            f"import {imports}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(flexjoint.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_simulation_layers_do_not_import_scipy():
    """Only tuning needs scipy, and of it only scipy.linalg and
    scipy.optimize; the layers below it and the command line import
    without it."""
    assert _scipy_modules_after(
        "flexjoint.plant, flexjoint.fuzzy, flexjoint.control, "
        "flexjoint.metrics, flexjoint.gainsio, flexjoint.cli") == "[]"


def test_tuning_does_not_import_scipy_stats():
    """tuning draws its Sobol and Latin-hypercube points in numpy, so
    importing it loads no scipy.stats module."""
    modules = ast.literal_eval(_scipy_modules_after("flexjoint.tuning"))
    assert "scipy.linalg" in modules and "scipy.optimize" in modules
    assert not [m for m in modules if m.startswith("scipy.stats")]


# Definitions that src/ keeps though no command reaches them, with the reason.
# state_matrix is the exact g = 0 linearization of the simulated loop, which
# DISCREPANCIES.md sets against the design model's spectrum.
UNREFERENCED_ON_PURPOSE = {"analysis.state_matrix"}


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each module-level function and class
    and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(tree: ast.AST, skip: ast.AST):
    """Names used in tree as a name, an attribute or an imported name,
    outside the subtree skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        stack.extend(ast.iter_child_nodes(node))


def test_src_defines_only_what_src_uses():
    """Every function, class and method in src/ is reached from src/
    outside its own body: code that only tests call belongs with them."""
    src = Path(flexjoint.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            if not any(name in set(_references(other, node))
                       for other in trees.values()):
                unused.append(f"{module}.{qualname}")
    unused = sorted(set(unused) - UNREFERENCED_ON_PURPOSE)
    assert not unused, f"defined in src/ but used only outside it: {unused}"
