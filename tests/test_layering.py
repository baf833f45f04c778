import os
import subprocess
import sys
from pathlib import Path

import flexjoint


def test_simulation_layers_do_not_import_scipy():
    """Only tuning needs scipy; the layers below it and the command line
    import without it."""
    code = ("import sys\n"
            "import flexjoint.plant, flexjoint.fuzzy, flexjoint.control, "
            "flexjoint.metrics, flexjoint.gainsio, flexjoint.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(flexjoint.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
