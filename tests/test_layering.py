import ast
import dis
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flexjoint


def _python(code: str) -> subprocess.CompletedProcess:
    """A fresh interpreter's run of code with src/ on its path."""
    src = str(Path(flexjoint.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)


def _fresh(code: str) -> str:
    """What a fresh interpreter running code with src/ on its path prints,
    stripped."""
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


PRINT_LOADED = ("print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
                "print(sorted(m for m in ('numpy.f2py', 'numpy.testing', 'numpy.ma')\n"
                "             if m in sys.modules))\n")


def _loaded_after(code: str) -> tuple[list[str], list[str]]:
    """The sorted scipy* entries of sys.modules, and which of numpy.f2py,
    numpy.testing and numpy.ma are loaded, after a fresh interpreter runs
    code."""
    scipy, numpy = _fresh("import sys\n" + code + "\n" + PRINT_LOADED).splitlines()[-2:]
    return ast.literal_eval(scipy), ast.literal_eval(numpy)


# the compiled modules whose dpotrf, dpotrs and setulb the tuner calls
TUNING_SCIPY = ["scipy.linalg._flapack", "scipy.optimize._lbfgsb"]


def test_simulation_layers_do_not_import_scipy():
    """Only tuning needs scipy; the layers below it and the command line
    import without it."""
    assert _loaded_after(
        "import flexjoint.plant, flexjoint.fuzzy, flexjoint.control, "
        "flexjoint.metrics, flexjoint.gainsio, flexjoint.cli")[0] == []


def test_tuning_does_not_import_scipy_stats():
    """Of scipy, importing tuning loads only the two compiled modules whose
    functions it calls, with none of the scipy.linalg and scipy.optimize
    package inits and none of the numpy.f2py, numpy.testing and numpy.ma
    that those drag in; it draws its Sobol and Latin-hypercube points in
    numpy, so no scipy.stats module either."""
    assert _loaded_after("import flexjoint.tuning") == (TUNING_SCIPY, [])


def test_a_tune_loads_no_more_scipy_than_importing_tuning(tmp_path):
    """A whole tune, run through main, loads the same two scipy modules and
    no numpy.f2py: an import of scipy anywhere on the tune path would show
    here."""
    argv = ["tune", "--stage", "pd", "--episodes", "3", "--n-init", "2",
            "--out", str(tmp_path / "t")]
    assert _loaded_after("import flexjoint.cli\n"
                         f"assert flexjoint.cli.main({argv!r}) == 0") \
        == (TUNING_SCIPY, [])


def _loads_after(code: str, *modules: str) -> list[bool]:
    """Whether each of modules is in sys.modules after a fresh interpreter
    runs code."""
    out = _fresh(f"import sys\n{code}\nprint([m in sys.modules for m in {modules!r}])")
    return ast.literal_eval(out.splitlines()[-1])


# what importing the command line and a simulate without a disturbance
# leave unloaded: numpy and analysis, and the dataclasses module with the
# inspect module that it imports
UNLOADED = ("numpy", "flexjoint.analysis", "dataclasses", "inspect")


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--disturbance", "off"], 0),
    (["simulate", "--controller", "single-pd"], 2),   # diverges at t = 1.27 s
    (None, None)])                                   # the import alone
def test_a_simulate_without_disturbance_loads_no_numpy(tmp_path, argv, code):
    """The closed loop, the metrics and the artifacts run on plain floats,
    and the value records build no code: importing the command line, and
    running a simulate that draws no disturbance, leave numpy, analysis,
    dataclasses and inspect unloaded."""
    run = "" if argv is None else (
        f"assert flexjoint.cli.main({argv + ['--out', str(tmp_path / 's')]!r})"
        f" == {code}")
    assert _loads_after(f"import flexjoint.cli\n{run}", *UNLOADED) \
        == [False] * len(UNLOADED)


def test_a_disturbed_simulate_loads_numpy_but_no_scipy(tmp_path):
    """The disturbance table is drawn by a numpy kernel, so a disturbed
    simulate loads numpy, and still no scipy."""
    argv = ["simulate", "--disturbance", "uniform", "--out", str(tmp_path / "s")]
    assert _loads_after("import flexjoint.cli\n"
                        f"assert flexjoint.cli.main({argv!r}) == 0",
                        "numpy", "scipy") == [True, False]


def _top_level_imports(tree: ast.Module):
    """Root names of the modules that tree imports when it is imported:
    outside function bodies, in class bodies and module-level blocks too."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0]
        stack.extend(ast.iter_child_nodes(node))


def test_only_analysis_and_tuning_import_numpy_at_top_level():
    """Each layer imports only what it uses: numpy is imported when a module
    loads only by analysis and tuning, which run on arrays throughout;
    the others import it inside the function that draws or fits."""
    src = Path(flexjoint.__file__).resolve().parent
    importers = {path.stem for path in src.glob("*.py")
                 if "numpy" in set(_top_level_imports(ast.parse(path.read_text())))}
    assert importers <= {"analysis", "tuning"}, importers


def _importers(module: str) -> set[str]:
    """The modules of src/flexjoint that import module, at their top level
    or inside a function."""
    def roots(node):
        if isinstance(node, ast.Import):
            return {alias.name.split(".")[0] for alias in node.names}
        if isinstance(node, ast.ImportFrom) and not node.level:
            return {node.module.split(".")[0]}
        return set()

    src = Path(flexjoint.__file__).resolve().parent
    return {path.stem for path in src.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if module in roots(node)}


def test_no_module_imports_dataclasses():
    """The value records derive from record.Record, which generates no
    code, so no module imports dataclasses, at its top level or inside a
    function."""
    importers = _importers("dataclasses")
    assert not importers, importers


@pytest.mark.parametrize("module", ["gc", "atexit"])
def test_only_the_command_line_sets_process_wide_hooks(module):
    """Interpreter-wide settings belong to the process's entry point: of
    the package, only cli imports gc or atexit, so the library layers
    leave collection and exit as their caller set them."""
    importers = _importers(module)
    assert importers <= {"cli"}, importers


SAME_BINDINGS = (
    "from scipy.linalg import lapack\n"
    "from scipy.linalg._flapack import dpotrf, dpotrs\n"
    "from scipy.optimize._lbfgsb import setulb\n"
    "print(tuning.dpotrf is lapack.dpotrf is dpotrf,\n"
    "      tuning.dpotrs is lapack.dpotrs is dpotrs, tuning.setulb is setulb)\n")


def test_tuning_binds_scipys_own_kernels_imported_first():
    """tuning imported before scipy: scipy's later package inits reuse the
    modules tuning loaded, so both hold the same function objects, and
    scipy's Cholesky solve and L-BFGS-B still work."""
    out = _fresh("from flexjoint import tuning\n" + SAME_BINDINGS +
                 "import numpy as np\n"
                 "from scipy.linalg import cho_factor, cho_solve\n"
                 "from scipy.optimize import minimize\n"
                 "a = np.array([[4.0, 1.0], [1.0, 3.0]])\n"
                 "print(np.allclose(a @ cho_solve(cho_factor(a), [1.0, 2.0]),"
                 " [1.0, 2.0]))\n"
                 "r = minimize(lambda x: (x @ x, 2 * x), [1.0, 2.0], jac=True,"
                 " method='L-BFGS-B')\n"
                 "print(r.success and np.allclose(r.x, 0.0))\n")
    assert out.splitlines() == ["True True True", "True", "True"]


def test_tuning_binds_scipys_own_kernels_imported_last():
    """scipy imported before tuning: tuning reuses scipy's modules."""
    out = _fresh("import scipy.linalg, scipy.optimize\n"
                 "from flexjoint import tuning\n" + SAME_BINDINGS)
    assert out == "True True True"


@pytest.mark.parametrize("name", ["scipy.linalg._no_such", "scipy.no_such._flapack",
                                  "scipy.linalg.tests"])
def test_a_missing_scipy_kernel_is_a_one_line_import_error(name):
    """A compiled module that is not in the scipy install, or a name that
    is a directory, is an ImportError naming the module and the scipy pin,
    and sys.modules gains nothing."""
    from flexjoint.tuning import _scipy_extension
    before = set(sys.modules)
    with pytest.raises(ImportError) as info:
        _scipy_extension(name)
    message = str(info.value)
    assert name in message and "scipy>=1.15,<1.18" in message
    assert "\n" not in message
    assert set(sys.modules) == before


def test_a_missing_scipy_is_a_one_line_import_error(monkeypatch):
    """Without scipy on the path the loader names the module and the pin
    instead of failing on a missing spec."""
    from flexjoint import tuning
    monkeypatch.setattr(tuning.importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._lapack_x .*scipy>=1\.15,<1\.18"):
        tuning._scipy_extension("scipy.linalg._lapack_x")


def test_tune_without_scipy_is_a_one_line_error(tmp_path):
    """With scipy unimportable, tune exits 1 with one error line that names
    the missing module and the scipy pin, writes nothing and prints no
    traceback."""
    argv = ["tune", "--stage", "pd", "--episodes", "2", "--n-init", "1",
            "--out", str(tmp_path / "t")]
    proc = _python("import sys\nsys.modules['scipy'] = None\n"
                   "from flexjoint.cli import main\n"
                   f"sys.exit(main({argv!r}))")
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ")
    assert "scipy.linalg._flapack" in line and "scipy>=1.15,<1.18" in line
    assert list(tmp_path.iterdir()) == []


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each module-level function, class and
    non-dunder name assigned, and each non-dunder method; an assigned
    name's node is its whole assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target]):
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name)
                            and not name.id.startswith("__")):
                        yield name.id, name.id, node
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
    """Every function, class, method and module-level constant in src/ is
    reached from src/ outside its own body or assignment: code that only
    tests call belongs with them."""
    src = Path(flexjoint.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            if not any(name in set(_references(other, node))
                       for other in trees.values()):
                unused.append(f"{module}.{qualname}")
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


def _tuple_swaps(function):
    """Line numbers at which function's bytecode builds an n-tuple only to
    unpack it into n names at once."""
    instructions = list(dis.get_instructions(function))
    return [build.positions.lineno
            for build, unpack in zip(instructions, instructions[1:])
            if build.opname == "BUILD_TUPLE" and unpack.opname == "UNPACK_SEQUENCE"
            and build.arg == unpack.arg]


def test_hot_loops_build_no_tuple_to_unpack():
    """simulate runs per Euler sub-step and, with the control law written
    in it, per control step, as infer does; the metrics' pairwise sum runs
    per block of terms, and the tuner's simplex, L-BFGS-B driver and
    lockstep engine per query: none of them writes a multiple assignment
    that the interpreter compiles to a tuple built and unpacked again.  An
    interpreter that compiles it to plain stores passes trivially."""
    from flexjoint import control, fuzzy, metrics, tuning
    found = {f.__qualname__: _tuple_swaps(f)
             for f in (control.simulate, fuzzy.infer,
                       metrics._pairwise, tuning._nelder_mead,
                       tuning._lockstep, tuning._lbfgsb_run)}
    assert found == {name: [] for name in found}
