"""The import policy: importing the package loads numpy and the package
itself, and scipy and yaml load at the first call that needs them.  A qubit
TEBD bound and ``noisebound validate`` never load scipy.

The checks run in a fresh interpreter, because this one already has scipy
loaded by other tests."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CHILD = """\
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m == "yaml" or m.startswith(("yaml.", "scipy.")))

import noisebound, noisebound.cli, noisebound.config, noisebound.sweep
after = {"import": loaded()}

with contextlib.redirect_stdout(io.StringIO()):
    code = noisebound.cli.main(["validate", "demos/chain_sweep.yaml"])
after["validate"] = [m for m in loaded() if m.startswith("scipy.")]

from noisebound.circuits import brickwall_1d
from noisebound.noise import purity_schedule
from noisebound.trace_dual import dual_value, heisenberg_tebd
circ, target = brickwall_1d(6, 5, 0.3, 0.1, 2)
dual = heisenberg_tebd(circ, target, 8)
bound = dual_value(circ, dual, target, purity_schedule(6, 5, 0.1)).bound
after["tebd"] = [m for m in loaded() if m.startswith("scipy.")]
print(json.dumps({"after": after, "code": code, "bound": bound}))
"""


def test_scipy_and_yaml_load_only_when_called():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", _CHILD], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    rec = json.loads(out.stdout.strip().splitlines()[-1])
    assert rec["code"] == 0
    assert math.isfinite(rec["bound"])
    assert rec["after"] == {"import": [], "validate": [], "tebd": []}
