"""The package namespace: its re-exports resolve lazily to the objects of their modules."""

import importlib
import subprocess
import sys

import pytest

import nestfock
from conftest import child_env
from nestfock.basis_change import LIBRARY_VERSION

# submodule -> the names the package re-exports from it
EXPORTS = {
    "basis_change": [
        "CacheError", "TransitionMatrix", "b1_in_b2", "b2_in_b1", "b3_in_b1", "b3_in_b2",
        "cache_load", "cache_store", "gram_b3", "hilb_fixed_in_p", "hilb_L_in_p",
        "transition_matrix",
    ],
    "curve_classes": ["add_part", "create_b3", "nakajima_L", "translate_b3"],
    "fock": [
        "B2Key", "FockVector", "annihilation", "b2_keys", "cotranslate", "creation",
        "loop_action", "pair_b1", "pair_b2", "pair_hilb_fixed", "pair_hilb_p", "translate",
    ],
    "incidence": [
        "IncidencePair", "betti_from_fixed_points", "betti_series", "derive_lambda",
        "enumerate_incidence_pairs", "euler_class", "h_pair", "h_plus", "k_index",
        "marked_cells", "tangent_weights_hilbert", "tangent_weights_incidence",
    ],
    "partitions": [
        "Cell", "Corner", "Partition", "canonical_generators", "dominance_le",
        "enumerate_partitions", "hook_length", "hook_product", "step_length", "z_factor",
    ],
    "ring": [
        "OrdinaryClass", "ordinary_cup", "ordinary_unit", "pullback_f", "pullback_g",
        "star_b1", "star_hilb", "star_tilde",
    ],
    "symfunc": [
        "PolyVKey", "character", "induced_product", "m_in_p", "p_in_m", "phi", "phi_tilde",
        "schur_in_p",
    ],
}


def run_probe(probe):
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_all_names_the_seven_modules_and_their_re_exports():
    names = [*EXPORTS, *(name for names in EXPORTS.values() for name in names)]
    assert len(names) == 73
    assert nestfock.__all__ == sorted(names)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_the_object_of_its_module(module):
    mod = importlib.import_module(f"nestfock.{module}")
    assert getattr(nestfock, module) is mod
    for name in EXPORTS[module]:
        assert getattr(nestfock, name) is getattr(mod, name)


def test_version_and_unknown_names():
    assert nestfock.__version__ == LIBRARY_VERSION
    assert not hasattr(nestfock, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        nestfock.no_such_name  # noqa: B018
    assert set(nestfock.__all__) <= set(dir(nestfock))


def test_star_import_binds_every_name():
    out = run_probe(
        "import nestfock\n"
        "from nestfock import *\n"
        "names = [n for n in nestfock.__all__ if globals()[n] is not getattr(nestfock, n)]\n"
        "print(len(nestfock.__all__), names)\n"
    )
    assert out == "73 []\n"


def test_a_module_runs_on_first_use():
    # a lazily registered module is in sys.modules before its code has run
    out = run_probe(
        "import sys, types\n"
        "import nestfock\n"
        "ran = lambda: sorted(m for m, v in sys.modules.items() if 'nestfock' in m and type(v) is types.ModuleType)\n"
        "print(ran(), 'nestfock.ring' in sys.modules)\n"
        "nestfock.star_tilde\n"
        "print(ran())\n"
    )
    first, second = out.splitlines()
    assert first == "['nestfock'] True"
    assert "'nestfock.ring'" in second and "'nestfock.verify'" not in second


@pytest.mark.parametrize(
    "module, name",
    [("ring", "star_b1"), ("symfunc", "phi"), ("verify", "run_suite"), ("basis_change", "pair_keys")],
)
def test_first_use_from_many_threads_sees_the_whole_module(module, name):
    # the first read runs the module's code once; the other threads wait for it
    out = run_probe(
        "import sys, threading\n"
        "import nestfock\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier, errors = threading.Barrier(8, timeout=60), []\n"
        "def read(i):\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        if i % 2:\n"
        f"            nestfock.{module}.{name}\n"
        "        else:\n"
        f"            from nestfock.{module} import {name}\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "threads = [threading.Thread(target=read, args=(i,), daemon=True) for i in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(60)\n"
        "print(errors, 'running:', sum(t.is_alive() for t in threads))\n"
    )
    assert out == "[] running: 0\n"


def test_an_assignment_before_the_first_read_is_kept():
    # the assignment runs the module's code first, so the first read does not undo it
    out = run_probe(
        "import sys, types\n"
        "from nestfock import ring, symfunc\n"
        "ring.star_b1 = 'patched'\n"
        "del symfunc.phi\n"
        "print(ring.star_b1, hasattr(symfunc, 'phi'), type(sys.modules['nestfock.ring']) is types.ModuleType)\n"
    )
    assert out == "patched False True\n"
