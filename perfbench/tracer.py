"""Trace one nestfock CLI call from outside the package.

Usage (src/ must be on PYTHONPATH):

    python3 perfbench/tracer.py OUT.json <nestfock arguments...>

The tracer wraps the public functions of every nestfock module, rebinding
each wrapped name in every module that imported it (``ring`` imports from
``basis_change``, ``verify`` from everywhere, ``verify.SUITES`` holds the
suite functions), then calls ``nestfock.cli.main(argv)`` and exits with its
status, as ``python -m nestfock`` does.  It writes nothing to stdout, so the
CLI's output stays byte-identical; its record goes to OUT.json.

Coarse boundaries become spans ``[name, start_ns, end_ns, parent, n]``
(``n`` is the function's degree argument when it has one).  Hot leaf
functions only count calls and accumulate the time of their outermost call,
so their time also stays inside the enclosing span's self time.  Nothing
under src/ is edited.

``summarize`` turns one record into per-layer partial sums; run.py adds them
up over the ops of a round.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# metric group -> functions recorded as spans; "Class.method" names a method
SPAN_GROUPS = {
    "basis_change.curve_recursion": ("basis_change.b3_in_b2", "basis_change.b3_in_b2_matrix"),
    "basis_change.gram": ("basis_change.gram_b3",),
    "basis_change.gram_solve": ("basis_change._gram_solve",),
    "basis_change.mat_inv": ("basis_change.mat_inv",),
    "basis_change.mat_mul": ("basis_change.mat_mul",),
    "basis_change.hilb": (
        "basis_change.hilb_L_in_p",
        "basis_change.hilb_L_in_p_matrix",
        "basis_change.hilb_L_in_fixed",
        "basis_change.hilb_fixed_in_p",
        "basis_change.hilb_p_in_fixed",
    ),
    "basis_change.apply": ("basis_change.TransitionMatrix.apply",),
    "basis_change.transition": ("basis_change.transition_matrix",),
    "basis_change.cache_load": ("basis_change.cache_load",),
    "basis_change.cache_store": ("basis_change.cache_store",),
    "curve_classes.create": ("curve_classes.create_b3", "curve_classes.nakajima_L"),
    "ring.star_tilde": ("ring.star_tilde",),
    "ring.ordinary_cup": ("ring.ordinary_cup",),
    "ring.unit": ("ring._unit_data", "ring.ordinary_unit", "ring.ordinary_unit_scale"),
    "ring.pullback": ("ring.pullback_f", "ring.pullback_g"),
    "symfunc": (
        "symfunc.p_in_m",
        "symfunc._p_to_m_rows",
        "symfunc._m_to_p_rows",
        "symfunc.m_in_p",
        "symfunc.character",
        "symfunc.schur_in_p",
        "symfunc.phi",
        "symfunc.phi_tilde",
        "symfunc.phi_tilde_inverse",
        "symfunc.hall_pairing",
        "symfunc.induced_product",
    ),
    "cli.emit": ("cli._emit_json", "cli._emit_csv"),
}

# metric group -> hot leaf functions: call count and outermost-call time only
LEAF_GROUPS = {
    "partitions.hook": (
        "partitions.hook_length",
        "partitions.hook_product",
        "partitions.Partition.conjugate",
    ),
    "partitions.enumerate": ("partitions.enumerate_partitions",),
    "incidence.h": ("incidence.h_pair", "incidence.h_plus"),
    "incidence.tangent_weights": (
        "incidence.tangent_weights_incidence",
        "incidence.tangent_weights_hilbert",
    ),
    "incidence.betti": ("incidence.betti_series", "incidence.betti_from_fixed_points"),
    "fock.pair": ("fock.pair_b1", "fock.pair_b2", "fock.pair_hilb_fixed", "fock.pair_hilb_p"),
    "fock.operator": (
        "fock.creation",
        "fock.annihilation",
        "fock.translate",
        "fock.cotranslate",
        "fock.translate_pow",
        "fock.loop_action",
        "fock.hilb_creation",
        "fock.hilb_annihilation",
    ),
}

# counted without timing: called too often for a clock read per call
COUNT_ONLY = {"fock.vector_add": ("fock.FockVector.__add__",)}

VERIFY_SUITES = (
    "hooks", "euler", "heisenberg", "loop", "pairing",
    "roundtrip", "phi", "diagrams", "ordinary", "betti",
)

ROOT_SPAN = "cli.main"
TO_JSON_DOC = "basis_change.TransitionMatrix.to_json_doc"


class Tracer:
    """Span and counter store of one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaves: dict[str, list[int]] = {}
        self.h_keys: set = set()
        self.memo = [0, 0]
        self.cache = {"loads": 0, "hits": 0, "bytes_read": 0, "stores": 0, "bytes_written": 0}
        self.verify = [0, 0]
        self._lru: list = []
        self._memo_start = (0, 0)

    # -- recording -------------------------------------------------------

    def open(self, name: str, n) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, n])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def span(self, name: str, fn):
        n_index = _degree_index(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = args[n_index] if n_index is not None and n_index < len(args) else kwargs.get("n")
            idx = self.open(name, n if isinstance(n, int) else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def leaf(self, group: str, fn, keys: set | None = None):
        stat = self.leaves.setdefault(group, [0, 0, 0])  # calls, ns, depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            if keys is not None:
                keys.add(args[0])
            if stat[2]:
                return fn(*args, **kwargs)
            stat[2] = 1
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += time.perf_counter_ns() - t0
                stat[2] = 0

        return wrapper

    def counter(self, group: str, fn):
        stat = self.leaves.setdefault(group, [0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args):
            stat[0] += 1
            return fn(*args)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every instrumented function of the nestfock package."""
        import nestfock.cli  # noqa: F401  (imports every module of the package)

        bc = sys.modules["nestfock.basis_change"]
        self._lru = [
            obj for obj in vars(bc).values()
            if callable(obj) and hasattr(obj, "cache_info") and obj.__module__ == bc.__name__
        ]
        for names in SPAN_GROUPS.values():
            for qual in names:
                _replace(qual, lambda fn, q=qual: self.span(q, fn))
        for group, names in LEAF_GROUPS.items():
            keys = self.h_keys if group == "incidence.h" else None
            for qual in names:
                _replace(qual, lambda fn, g=group, k=keys: self.leaf(g, fn, k))
        for group, names in COUNT_ONLY.items():
            for qual in names:
                _replace(qual, lambda fn, g=group: self.counter(g, fn))

        verify = sys.modules["nestfock.verify"]
        for suite in VERIFY_SUITES:
            _replace(f"verify.suite_{suite}", lambda fn, s=suite: self.span(f"verify.suite.{s}", fn))
        _replace("verify.run_suite", self._wrap_run_suite)
        _replace(TO_JSON_DOC, self._wrap_to_json_doc)
        _replace("basis_change.cache_load", self._wrap_cache_load)
        _replace("basis_change.cache_store", self._wrap_cache_store)
        for name, (fn, default) in list(verify.SUITES.items()):
            verify.SUITES[name] = (getattr(verify, f"suite_{name}"), default)

    def _wrap_run_suite(self, fn):
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                results = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                self.verify[0] += len(results)
                self.verify[1] += sum(1 for r in results if not r.ok)
            return results

        return wrapper

    def _wrap_to_json_doc(self, fn):
        # the CLI's own emit path calls to_json_doc directly under main;
        # cache_store calls it too, and that time belongs to the store
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            under_main = len(self.stack) == 1
            idx = self.open("cli.emit" if under_main else TO_JSON_DOC, None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _wrap_cache_load(self, fn):
        bc = sys.modules["nestfock.basis_change"]

        @functools.wraps(fn)
        def wrapper(source, target, n, cache_dir):
            matrix = fn(source, target, n, cache_dir)
            self.cache["loads"] += 1
            if matrix is not None:
                self.cache["hits"] += 1
                self.cache["bytes_read"] += os.path.getsize(bc._cache_path(cache_dir, source, target, n))
            return matrix

        return wrapper

    def _wrap_cache_store(self, fn):
        @functools.wraps(fn)
        def wrapper(matrix, cache_dir):
            path = fn(matrix, cache_dir)
            self.cache["stores"] += 1
            self.cache["bytes_written"] += os.path.getsize(path)
            return path

        return wrapper

    # -- the traced call -------------------------------------------------

    def memo_snapshot(self) -> tuple[int, int]:
        infos = [f.cache_info() for f in self._lru]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def run_main(self, argv: list[str]) -> int:
        import nestfock.cli

        self._memo_start = self.memo_snapshot()
        idx = self.open(ROOT_SPAN, None)
        try:
            return nestfock.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        finally:
            self.close(idx)
            hits, misses = self.memo_snapshot()
            self.memo = [hits - self._memo_start[0], misses - self._memo_start[1]]

    def record(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": {g: s[:2] for g, s in self.leaves.items()},
            "h_distinct": len(self.h_keys),
            "memo": self.memo,
            "cache": self.cache,
            "verify": self.verify,
        }


def _degree_index(fn):
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("n") if "n" in params else None


def _replace(qual: str, make) -> None:
    """Replace nestfock.<qual> by make(original) wherever it is bound."""
    parts = qual.split(".")
    module = sys.modules[f"nestfock.{parts[0]}"]
    if len(parts) == 3:
        cls = getattr(module, parts[1])
        setattr(cls, parts[2], make(cls.__dict__[parts[2]]))
        return
    original = getattr(module, parts[1])
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if name == "nestfock" or name.startswith("nestfock."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


# ---------------------------------------------------------------------------
# summarising one record (used by run.py; needs no nestfock import)

def _group_of(name: str) -> str:
    return _GROUP.get(name, name)


_GROUP = {q: g for g, names in SPAN_GROUPS.items() for q in names}
_GROUP.update({f"verify.suite.{s}": f"verify.suite.{s}" for s in VERIFY_SUITES})


def summarize(record: dict) -> dict:
    """Per-group self time, inclusive time and span count of one call.

    Self time is a span's duration minus the durations of its direct
    children; inclusive time counts only spans with no ancestor of the
    same group, so recursive b3_in_b2 and hilb_L_in_p are not counted twice.
    """
    spans = record["spans"]
    child_ns = [0] * len(spans)
    for name, start, end, parent, _n in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    groups = [_group_of(s[0]) for s in spans]
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    count: dict[str, int] = {}
    for i, (name, start, end, parent, _n) in enumerate(spans):
        g = groups[i]
        self_ns[g] = self_ns.get(g, 0) + (end - start) - child_ns[i]
        count[g] = count.get(g, 0) + 1
        p = parent
        while p >= 0 and groups[p] != g:
            p = spans[p][3]
        if p < 0:
            incl_ns[g] = incl_ns.get(g, 0) + (end - start)
    main = spans[0] if spans and spans[0][0] == ROOT_SPAN else None
    return {
        "self_ns": self_ns,
        "incl_ns": incl_ns,
        "count": count,
        "main_start_ns": main[1] if main else None,
        "main_ns": (main[2] - main[1]) if main else 0,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        sys.stderr.write("usage: tracer.py OUT.json <nestfock arguments...>\n")
        return 2
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run_main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.record(), fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
