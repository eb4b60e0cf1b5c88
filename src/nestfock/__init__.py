"""Exact-arithmetic engine for the loop-algebra Fock module on the
equivariant cohomology of incidence Hilbert schemes of the plane.

Importing the package runs none of its modules.  Each submodule is
registered lazily: it is in ``sys.modules`` at once, and its code runs
on the first read of one of its attributes.  The names re-exported here
resolve on first use (PEP 562), so a command pays only for the modules
it uses.
"""

import sys
from importlib.util import find_spec, module_from_spec
from threading import RLock
from types import ModuleType

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


_LOAD_LOCK, _RUNNING = RLock(), set()


class _Lazy(ModuleType):
    """A registered module whose code runs on the first read of an attribute, once, under
    the load lock: a read from another thread waits until the module is filled (where
    ``LazyLoader`` before Python 3.12.3 shows it empty), one from the running code does not."""

    def __getattribute__(self, attr):
        with _LOAD_LOCK:
            if type(self) is _Lazy and self not in _RUNNING:
                _RUNNING.add(self)
                ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                self.__class__ = ModuleType
            return ModuleType.__getattribute__(self, attr)


# every module but cli, the entry point, which runs when it is imported
for _name in (*_EXPORTS, "verify"):
    _spec = find_spec(f"{__name__}.{_name}")
    globals()[_name] = sys.modules[_spec.name] = module_from_spec(_spec)
    globals()[_name].__class__ = _Lazy
del _name, _spec


def __getattr__(name: str):
    try:
        module, attr = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(globals()[module], attr)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
