"""Virtual-graph calculus for higher derivatives.

Canonical coloured rooted trees stand for the terms of higher derivatives of
composed functions, inverse functions and ODE flows.  The package
enumerates them, assigns exact signs and integer weights, renders the
symbolic formulas, and cross-checks everything against truncated power
series with exact rational coefficients.

A public name imports its submodule when it is first used (PEP 562), so a
process loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_MODULES = {
    name: module
    for module, names in {
        "enumeration": "DerivativeGraph Regime WeightedGraph enumerate_composite "
        "enumerate_graphs enumerate_inverse enumerate_ode weigh",
        "formulas": "Formula FormulaTerm parse_machine_term render_derivative",
        "oracle": "Report verify",
        "skeletons": "Skeleton SkeletonSyntaxError parse_skeleton",
        "trees": "Colour DEFAULT_COLOUR Tree TreeSyntaxError canonicalize compare_trees "
        "format_trees make_palette parse_tree",
    }.items()
    for name in names.split()
}

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULES.keys())
