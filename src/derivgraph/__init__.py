"""Virtual-graph calculus for higher derivatives.

Canonical coloured rooted trees stand for the terms of higher derivatives of
composed functions, inverse functions and ODE flows.  The package
enumerates them, assigns exact signs and rational weights, renders the
symbolic formulas, and cross-checks everything against truncated power
series with exact rational coefficients.
"""

from .enumeration import (
    DerivativeGraph,
    Regime,
    enumerate_composite,
    enumerate_graphs,
    enumerate_inverse,
    enumerate_ode,
)
from .formulas import (
    Formula,
    FormulaTerm,
    parse_machine_term,
    render_derivative,
    render_term,
)
from .jets import (
    Jet,
    compose,
    identity_jet,
    jet_ode_flow,
    jet_reverse,
)
from .skeletons import Skeleton, SkeletonSyntaxError, parse_skeleton
from .trees import (
    Colour,
    DEFAULT_COLOUR,
    LEAF,
    Tree,
    TreeSyntaxError,
    canonicalize,
    cardinality,
    compare_trees,
    complexity_number,
    entrance_count,
    format_tree,
    format_trees,
    make_palette,
    parse_tree,
    symmetry_number,
    tree_from_dict,
    tree_to_dict,
)
from .verify import Report, verify
from .weights import (
    StructuralSummary,
    WeightedGraph,
    totally_asymmetric,
    totally_symmetric,
    weigh,
)

__version__ = "0.1.0"

__all__ = [
    "Colour",
    "DEFAULT_COLOUR",
    "DerivativeGraph",
    "Formula",
    "FormulaTerm",
    "Jet",
    "LEAF",
    "Regime",
    "Report",
    "Skeleton",
    "SkeletonSyntaxError",
    "StructuralSummary",
    "Tree",
    "TreeSyntaxError",
    "WeightedGraph",
    "canonicalize",
    "cardinality",
    "compare_trees",
    "complexity_number",
    "compose",
    "entrance_count",
    "enumerate_composite",
    "enumerate_graphs",
    "enumerate_inverse",
    "enumerate_ode",
    "format_tree",
    "format_trees",
    "identity_jet",
    "jet_ode_flow",
    "jet_reverse",
    "make_palette",
    "parse_machine_term",
    "parse_skeleton",
    "parse_tree",
    "render_derivative",
    "render_term",
    "symmetry_number",
    "totally_asymmetric",
    "totally_symmetric",
    "tree_from_dict",
    "tree_to_dict",
    "verify",
    "weigh",
]
