"""Letter-linking invariants on free-group words, the graph calculus that
organizes them, and the free differential calculus for cross-checks.

`diagram` and `selfcheck` serve one CLI command each, so they are loaded
at first use: each is in ``sys.modules`` and bound here at once, but its
code runs at its first attribute access.  Every other module is imported
here eagerly.
"""

import importlib.util
import sys

from .errors import (
    InconsistentSystem,
    InvalidArgument,
    InvalidEdge,
    InvalidMultidegree,
    InvalidSymbol,
    LabelMismatch,
    LetterLinkError,
    MixedGrading,
    NonzeroCount,
    NotATree,
    NotInGamma,
    ParseError,
    SameGenerator,
    TooLarge,
    UndefinedInvariant,
    UndefinedReduction,
    UnknownGenerator,
)
from .words import (
    CompactWord,
    Letter,
    Word,
    commutator,
    free_reduce,
    parse_compact,
    parse_word,
    random_gamma_element,
    relabel,
)
from .symbols import (
    Symbol,
    SymbolSum,
    equivalent,
    leibniz_terms,
    parse_symbol,
    preimages_of_symbol,
    relabel_symbol,
)
from .linking import (
    Cobounding,
    Evaluator,
    List,
    count,
    enumerate_coboundings,
    eval_symbol,
    eval_symbol_sum,
    link,
    link_via_cobounding,
    prefix_potential,
    standard_list,
    symbol_list,
)
from .eil import (
    GraphSum,
    SymbolGraph,
    default_order,
    distinct_reduce,
    enumerate_distinct_vertex_graphs,
    eval_graph,
    graph_of_symbol,
    parse_graph,
    reduce_at,
    reduce_full,
)
from .lie import (
    BracketTree,
    LieElement,
    configuration_pairing,
    extended_pairing,
    lie_coordinates,
    lie_image_of_bracket_word,
    lyndon_basis,
    parse_lie,
)
from .fox import (
    GroupRingElement,
    augmentation,
    fox_derivative,
    fox_eval,
    iterated_fox,
)


def _load_at_first_use(name: str):
    """The submodule ``name``, in ``sys.modules`` with its code not yet run,
    unless it is there already."""
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


diagram = _load_at_first_use("diagram")
selfcheck = _load_at_first_use("selfcheck")

__version__ = "0.1.0"
