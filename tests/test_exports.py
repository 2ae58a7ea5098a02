"""Every pcup module's export list names only what the module defines,
so `from pcup.<module> import *` works."""

import importlib
import pkgutil

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
