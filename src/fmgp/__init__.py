"""Gaussian process regression and classification with learned neural
feature maps, low-rank exact inference, and spectral analysis tools.

Submodules are loaded lazily so that entry points can configure
threading environment variables before numpy is first imported.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("errors", "features", "lowrank", "model_file", "regression",
               "classification", "spectral", "data", "oracle_check", "cli")

__all__ = list(_SUBMODULES)


def __getattr__(name):
    if name in _SUBMODULES:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))
