"""Deferred imports: a module bound at import time but loaded on first use.

numpy's import is most of lutfit's start-up, and export does no array
arithmetic, so the numeric modules bind np = lazy_import("numpy"). An
`import numpy` statement run after the lazy module is installed loads it at
once (Python 3.11 reads its __spec__), so no lutfit module imports numpy
itself.
"""

import importlib.util
import sys


def lazy_import(name: str):
    """The module name, loaded at its first attribute access.

    A module already in sys.modules is returned as it is.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
