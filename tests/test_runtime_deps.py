"""numpy is the only runtime dependency: importing every distclust module
loads nothing from outside the standard library, numpy and distclust."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter, so modules this test session imported (pytest
# and its plugins) cannot hide a third-party import.
PROBE = """
import importlib, json, os, pkgutil, site, sys, sysconfig
before = set(sys.modules)
import numpy
import distclust
for info in pkgutil.walk_packages(distclust.__path__, "distclust."):
    importlib.import_module(info.name)

def dirs(paths):
    return {os.path.realpath(p) for p in paths}

def under(path, roots):
    return any(path.startswith(root + os.sep) for root in roots)

paths = sysconfig.get_paths()
stdlib = dirs([paths["stdlib"], paths["platstdlib"]])
# site-packages may sit inside the stdlib directory
installed = dirs([paths["purelib"], paths["platlib"], *site.getsitepackages()])
ours = dirs(os.path.dirname(m.__file__) for m in (numpy, distclust))
outside = []
for name, module in list(sys.modules.items()):
    path = getattr(module, "__file__", None)
    if name in before or not path:
        continue
    path = os.path.realpath(path)
    if not (under(path, ours) or (under(path, stdlib) and not under(path, installed))):
        outside.append(f"{name}: {path}")
print(json.dumps(sorted(outside)))
"""


def test_imports_only_stdlib_numpy_and_distclust():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []
