"""Exact-arithmetic engine for the loop-algebra Fock module on the
equivariant cohomology of incidence Hilbert schemes of the plane.

Importing the package runs none of its modules.  Each submodule is
registered lazily (``importlib.util.LazyLoader``): it is in
``sys.modules`` at once, and its code runs on the first read of one of
its attributes.  The names re-exported here resolve on first use
(PEP 562), so a command pays only for the modules it uses.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "basis_change": (
        "CacheError", "TransitionMatrix", "b1_in_b2", "b2_in_b1", "b3_in_b1", "b3_in_b2",
        "cache_load", "cache_store", "gram_b3", "hilb_fixed_in_p", "hilb_L_in_p",
        "transition_matrix",
    ),
    "curve_classes": ("add_part", "create_b3", "nakajima_L", "translate_b3"),
    "fock": (
        "B2Key", "FockVector", "annihilation", "b2_keys", "cotranslate", "creation",
        "loop_action", "pair_b1", "pair_b2", "pair_hilb_fixed", "pair_hilb_p", "translate",
    ),
    "incidence": (
        "IncidencePair", "betti_from_fixed_points", "betti_series", "derive_lambda",
        "enumerate_incidence_pairs", "euler_class", "h_pair", "h_plus", "k_index",
        "marked_cells", "tangent_weights_hilbert", "tangent_weights_incidence",
    ),
    "partitions": (
        "Cell", "Corner", "Partition", "canonical_generators", "dominance_le",
        "enumerate_partitions", "hook_length", "hook_product", "step_length", "z_factor",
    ),
    "ring": (
        "OrdinaryClass", "ordinary_cup", "ordinary_unit", "pullback_f", "pullback_g",
        "star_b1", "star_hilb", "star_tilde",
    ),
    "symfunc": (
        "PolyVKey", "character", "induced_product", "m_in_p", "p_in_m", "phi", "phi_tilde",
        "schur_in_p",
    ),
}
# name -> (submodule, attribute)
_SOURCES = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
_SOURCES["__version__"] = ("basis_change", "LIBRARY_VERSION")

__all__ = sorted([*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)])


def _register_lazily(name: str):
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# every module but cli, the entry point, which runs when it is imported
for _name in (*_EXPORTS, "verify"):
    globals()[_name] = _register_lazily(_name)
del _name


def __getattr__(name: str):
    try:
        module, attr = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(globals()[module], attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
