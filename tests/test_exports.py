"""Every name a ``repro`` module lists in ``__all__`` must resolve.

Deleting code can leave a stale re-export behind in a package
``__init__``; walking every module catches it at import time instead
of at a user's ``from repro.x import *``.
"""

import importlib
import pkgutil

import repro


def _modules():
    yield repro.__name__
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            yield info.name


def test_every_exported_name_resolves():
    missing = []
    n_names = 0
    for name in _modules():
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            n_names += 1
            if not hasattr(module, export):
                missing.append(f"{name}.{export}")
    assert n_names > 0
    assert missing == []
