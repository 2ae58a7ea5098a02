"""Every pcup module's export list names only what the module defines,
so `from pcup.<module> import *` works, and the CLI imports every module."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pcup


def test_every_exported_name_resolves():
    modules = [info.name for info in pkgutil.iter_modules(pcup.__path__)]
    assert "autodiff" in modules
    missing = [
        f"pcup.{name}.{attr}"
        for name in modules
        for attr in getattr(importlib.import_module(f"pcup.{name}"), "__all__", ())
        if not hasattr(importlib.import_module(f"pcup.{name}"), attr)
    ]
    assert missing == []


def test_the_cli_imports_every_module():
    # a module that no command imports holds code that no command runs
    src = str(Path(pcup.__file__).resolve().parent.parent)
    script = ("import pkgutil, sys\n"
              "import pcup, pcup.cli\n"
              "print(sorted(info.name for info in pkgutil.iter_modules(pcup.__path__)\n"
              "             if f'pcup.{info.name}' not in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
