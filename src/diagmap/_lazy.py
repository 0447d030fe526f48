"""Module attributes resolved on first access (PEP 562).

Three modules use this: the package, whose exports include the data
layer (`states`) and the searches, and two closed forms, which
name what perfbench reads there: `symmetric_curve` names curve_grid and
optimal_decomposition, and `face_minimum` minimizer_states, all three
array builders of `states`, and brute_force_min_face of `linesearch`.
Importing any of them must load no numpy, so each such name is imported
only when it is first read, and then bound into the reading module's
globals: every later read is a plain attribute lookup and runs no import
statement.
"""

import importlib


def lazy_names(namespace: dict, sources: dict):
    """The module-level __getattr__ and __dir__ of the module whose globals
    are namespace.  sources maps a module, relative to the package, to the
    names read from it; any other missing name raises AttributeError."""
    origin = {name: module for module, names in sources.items() for name in names}
    module_name, package = namespace["__name__"], namespace["__package__"]

    def __getattr__(name):
        try:
            source = origin[name]
        except KeyError:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(importlib.import_module(source, package), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__
