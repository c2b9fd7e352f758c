"""Cold start: a fresh ``import repro`` pays for numpy, not scipy.

scipy is imported at its call sites (GLS solvers, sparse materialisation,
EFPA's DCT, the competitive t-test): importing the package or running
privlint loads no scipy module, and a grid or serve run loads only the
submodules it calls.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_import_repro_loads_no_scipy():
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")]))
    probe = ("import sys, repro, repro.privlint; "
             "print('\\n'.join(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.'))))")
    completed = subprocess.run([sys.executable, "-c", probe], env=env,
                               capture_output=True, text=True, check=True)
    assert completed.stdout.split() == []
