"""Letter-linking invariants on free-group words, the graph calculus that
organizes them, and the free differential calculus for cross-checks.

Only ``errors`` is imported with the package.  Every other module of the
package but ``cli`` is put in ``sys.modules`` at once through
``importlib.util.LazyLoader``, with its code not yet run, so that the
names of all the layers are known from the start.  The package's own
attributes (the modules, and the names they lend the package, such as
``parse_word`` or ``lie_coordinates``) are resolved by ``__getattr__``
below: at the first access it runs the module's code under one lock and
binds the result here, so that ``from letterlink import eil`` always
returns a loaded module.  ``cli`` imports ``errors`` and ``words`` at its
top and the rest in each command's branch; ``eil.eval_graph`` and
``lie.lie_coordinates`` take ``linking`` and ``fox`` from the package when
they are called:

=====================================  ======================================
command                                modules whose code runs
=====================================  ======================================
``eval --symbol``                      ``symbols``, ``linking``
``eval --graph``                       ``eil`` (with ``lie``, ``linalg``,
                                       ``symbols``), ``linking``
``fox``                                ``fox`` (with ``symbols``)
``basis``                              ``lie`` (with ``symbols``)
``coords``                             ``lie`` (with ``symbols``), ``fox``
``reduce``, ``distinct``, ``matrix``,  ``eil`` (with ``lie``, ``linalg``,
``pair``                               ``symbols``)
``diagram``                            ``diagram`` (with ``symbols``,
                                       ``linking``)
``selfcheck``                          ``selfcheck`` (every module but
                                       ``diagram``)
=====================================  ======================================
"""

import importlib.util
import sys
import threading

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

# each module loaded at first use, with the names it lends the package
_LENDS = {
    "words": ("CompactWord", "Letter", "Word", "commutator", "free_reduce",
              "parse_compact", "parse_word", "random_gamma_element", "relabel"),
    "symbols": ("Symbol", "SymbolSum", "equivalent", "leibniz_terms",
                "parse_symbol", "preimages_of_symbol", "relabel_symbol"),
    "linking": ("Cobounding", "Evaluator", "List", "count",
                "enumerate_coboundings", "eval_symbol", "eval_symbol_sum",
                "link", "link_via_cobounding", "prefix_potential",
                "standard_list", "symbol_list"),
    "eil": ("GraphSum", "SymbolGraph", "default_order", "distinct_reduce",
            "enumerate_distinct_vertex_graphs", "eval_graph",
            "graph_of_symbol", "parse_graph", "reduce_at", "reduce_full"),
    "lie": ("BracketTree", "LieElement", "configuration_pairing",
            "extended_pairing", "lie_coordinates", "lie_image_of_bracket_word",
            "lyndon_basis", "parse_lie"),
    "fox": ("GroupRingElement", "augmentation", "fox_derivative", "fox_eval",
            "iterated_fox"),
    "linalg": (),
    "diagram": (),
    "selfcheck": (),
}
_LENDER = {name: module for module, names in _LENDS.items() for name in names}
# re-entrant: a module being loaded, such as selfcheck, may ask for another
_LOADING = threading.RLock()

for _module in _LENDS:
    _fullname = f"{__name__}.{_module}"
    if _fullname not in sys.modules:
        _spec = importlib.util.find_spec(_fullname)
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        sys.modules[_fullname] = importlib.util.module_from_spec(_spec)
        _spec.loader.exec_module(sys.modules[_fullname])
        del _spec
del _module, _fullname


def __getattr__(name: str):
    module = _LENDER.get(name, name)
    if module not in _LENDS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    with _LOADING:
        loaded = importlib.import_module(f"{__name__}.{module}")
        vars(loaded)  # runs a lazy module's code; the import does from 3.11 on
        value = loaded if name == module else getattr(loaded, name)
        globals().update({module: loaded, name: value})
    return value


def __dir__():
    return sorted({*globals(), *_LENDS, *_LENDER})


# so that ``from letterlink import *`` binds every name, loading what it needs
__all__ = [name for name in __dir__() if not name.startswith("_")]
__version__ = "0.1.0"
