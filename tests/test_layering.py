import ast
import importlib
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


def _caught_names(tree: ast.AST):
    """The class names that the except clauses in tree catch, without any
    module prefix."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            yield from (ast.unparse(t).rsplit(".", 1)[-1] for t in types)


def test_every_exception_class_is_caught_by_name():
    """An exception class in src/ earns its place only if some except
    clause in src/ tells it apart; anything else is a plain ValueError or
    RuntimeError with a message, and main maps those to exit codes."""
    src = Path(flexjoint.__file__).resolve().parent
    paths = sorted(src.glob("*.py"))
    modules = [importlib.import_module(f"flexjoint.{path.stem}")
               for path in paths if path.stem != "__init__"]
    exceptions = {name for module in modules
                  for name, obj in vars(module).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__}
    caught = {name for path in paths
              for name in _caught_names(ast.parse(path.read_text()))}
    assert exceptions >= {"CliError", "DivergedTrajectory"}
    uncaught = sorted(exceptions - caught)
    assert not uncaught, f"exception classes no except clause in src/ names: {uncaught}"
