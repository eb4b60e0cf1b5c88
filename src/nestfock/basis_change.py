"""Transformations among the bases of the incidence Fock module.

Three bases of the degree-n piece are handled, all indexed
deterministically:

* b1 - fixed-point basis, keys = incidence pairs in enumeration order;
* b2 - operator basis, keys = (i, nu) with i descending;
* b3 - curve basis, keys = incidence pairs in enumeration order.

The curve basis in the operator basis, A, solves the curve-basis
creation rule a row at a time, in the order (length of lam, value == 0):
with m the largest part that lam and mu share, a row is a_-m, which only
inserts m into nu, on a row of degree n - m, less the other terms of the
rule, each a row of degree n built before it (``_curve_row``, the one
step, which verify runs from every other shared part as well).  The
operator basis in the fixed-point basis, B, and in the curve basis,
A^-1, are closed-form from the words (i, nu) = t^i a_-nu on the vacuum:
the rows (0, nu) come from the character table and the curve-basis
creation operator, and each other row translates a row of degree n - 1,
translation being local in fixed-point coordinates (a checked identity)
and a relabelling of curve keys.  Every other route is a product ``@``
or the transpose rescaled by the pairing-transport law B H B^T = Z:
M = A B, C = B^-1 = H B^T Z^-1 and M^-1 = C A^-1.  All arithmetic is
exact and in integers: a matrix stores each row as its nonzero integers
over one denominator, every builder makes its rows in that form from
their nonzero entries alone (``_ratio_row`` and ``_stored_row``), and A,
B, A^-1, ``@`` and ``apply`` sum rows by one loop, ``_combine``.  No
route solves, inverts or builds a dense row: the Gram solve of
A Z A^T = M H M^T, the Gauss-Jordan ``mat_inv`` and the dense ``mat_mul``
stay as test oracles, named by perfbench's tracer; verify uses none.

The Hilbert side is read off the incidence side: the n-point curve class
L_lam in the creation basis is the slice (0, nu) of the incidence curve
class (lam, lam + (1)) in the operator basis, read as nu.  The fixed
class of lam is h(lam) s_lam, so the fixed classes in the creation basis
(F) come from the character table, F^-1 is the rescaled transpose, and
the curve classes in the fixed classes are L F^-1.  Both sides run
through the same helpers: ``_expansion_matrix`` (the one builder of
operator tables: curve classes, p -> m, conjugated operators and the
a_-m and t tables of A^-1), ``@``, ``_transport_inverse`` (the
rescaled transpose) and ``_conjugated`` (an operator carried into
fixed-point coordinates, built once per index and degree as the product
of the change of basis, the operator's own table and the change back).

Degree-level matrices can be persisted as JSON documents with a
checksum; a version mismatch is a cache miss, a corrupted file is an
explicit error.  The checksum is SHA-256 from the interpreter's own
module, so no document loads OpenSSL.  A document is rendered once per
matrix, with its entry rows joined into the indent-2 layout directly;
a loaded document in canonical form keeps its entry strings and its
validated checksum for that rendering.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from pathlib import Path

from .curve_classes import create_b3, translate_b3_linear
from .fock import (
    B2Key,
    FockVector,
    annihilation,
    b2_keys,
    cotranslate,
    creation,
    hilb_annihilation,
    hilb_creation,
)
from .incidence import IncidencePair, enumerate_incidence_pairs, h_pair
from .partitions import (
    Partition,
    character,
    hook_product,
    insert_part,
    partition_keys,
    remove_part,
    z_factor,
)

LIBRARY_VERSION = "0.1.0"

BASIS_TAGS = ("b1", "b2", "b3")


class CacheError(Exception):
    """A persisted matrix document is damaged, inconsistent or cannot be written."""


# ---------------------------------------------------------------------------
# exact dense linear algebra

def mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Dense product a * b; the reference oracle that tests compare the sparse products with."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    return [
        [sum((ra[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for ra in a
    ]


def mat_inv(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse by exact Gauss-Jordan elimination; raises on singular input.

    The reference oracle that tests compare the triangular routes with.
    """
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ArithmeticError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# key books

@lru_cache(maxsize=None)
def pair_keys(n: int) -> tuple[IncidencePair, ...]:
    return tuple(enumerate_incidence_pairs(n))


@lru_cache(maxsize=None)
def operator_keys(n: int) -> tuple[B2Key, ...]:
    return tuple(b2_keys(n))


def _key_book(tag: str, n: int) -> tuple:
    return operator_keys(n) if tag == "b2" else pair_keys(n)


# ---------------------------------------------------------------------------
# transition matrix value type

def key_to_obj(tag: str, key) -> object:
    return key.as_json_obj() if tag in BASIS_TAGS else key.as_list()


def key_from_obj(tag: str, obj) -> object:
    if tag in ("b1", "b3"):
        return IncidencePair(Partition(obj["lambda"]), Partition(obj["mu"]))
    if tag == "b2":
        if int(obj["i"]) != obj["i"]:
            raise ValueError(f"operator key index {obj['i']!r} is not an integer")
        return B2Key(int(obj["i"]), Partition(obj["nu"]))
    return Partition(obj)


class TransitionMatrix:
    """Exact change-of-basis matrix for one graded piece.

    Row key p expands the source basis element p in the target basis:
    p = sum_q rows[p][q] * q.  Each row is stored once, in ``int_rows``,
    as (nonzero (column, numerator) pairs in ascending column order,
    denominator), the denominator being the least common multiple of the
    row's reduced denominators.  The form is canonical, so equality is
    exact.  Every builder hands ``_of`` such rows; the constructor's dense
    rows and the Fraction view ``rows``, built on first read, serve users and tests.
    """

    __slots__ = (
        "source", "target", "degree", "row_keys", "col_keys", "int_rows",
        "_index", "_view", "_strs", "_sum", "_text",
    )

    def __new__(cls, source, target, degree, row_keys, col_keys, rows) -> "TransitionMatrix":
        """The matrix of dense rows of ints or Fractions, one per row key."""
        rows = [tuple(row) for row in rows]
        _check_shape(rows, row_keys, col_keys)
        int_rows = [_ratio_row([(j, x.numerator, x.denominator) for j, x in enumerate(r)]) for r in rows]
        return cls._of(source, target, degree, row_keys, col_keys, int_rows)

    @classmethod
    def _of(cls, source, target, degree, row_keys, col_keys, int_rows) -> "TransitionMatrix":
        """The matrix of rows already in the stored form."""
        self = object.__new__(cls)
        self.source = source
        self.target = target
        self.degree = degree
        self.row_keys = tuple(row_keys)
        self.col_keys = tuple(col_keys)
        self.int_rows = tuple(int_rows)
        self._index = {k: i for i, k in enumerate(self.row_keys)}
        self._view = None  # rows as Fractions
        self._strs = None  # rows as canonical fraction strings
        self._sum = None  # checksum of payload()
        self._text = None
        return self

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense rows as Fractions, read-only; built once, on first read."""
        if self._view is None:
            expansions = map(self.expand, self.row_keys)
            self._view = tuple(tuple(v[c] for c in self.col_keys) for v in expansions)
        return self._view

    def expand(self, key) -> FockVector:
        pairs, d = self.int_rows[self._index[key]]
        cols = self.col_keys
        return FockVector._wrap({cols[j]: Fraction(x, d) for j, x in pairs})

    def apply(self, v: FockVector) -> FockVector:
        """Image of a vector in source-basis coordinates, summed in integers per column."""
        rows, index = self.int_rows, self._index
        acc, den = _combine([(c, rows[index[k]]) for k, c in v.items()], len(self.col_keys))
        cols = self.col_keys
        return FockVector._wrap({cols[j]: Fraction(x, den) for j, x in enumerate(acc) if x})

    def __matmul__(self, other: "TransitionMatrix") -> "TransitionMatrix":
        """The product, from self's source to other's target; self's columns must be other's rows.

        Each row of the product is one ``_combine`` of other's rows.
        """
        if self.col_keys != other.row_keys:
            raise ValueError("the column keys of the left factor are not the row keys of the right")
        right, width = other.int_rows, len(other.col_keys)
        rows = []
        for pairs, d in self.int_rows:
            acc, den = _combine([(x, right[k]) for k, x in pairs], width)
            rows.append(_stored_row(enumerate(acc), den * d))
        return TransitionMatrix._of(
            self.source, other.target, self.degree, self.row_keys, other.col_keys, rows
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TransitionMatrix)
            and self.source == other.source
            and self.target == other.target
            and self.degree == other.degree
            and self.row_keys == other.row_keys
            and self.col_keys == other.col_keys
            and self.int_rows == other.int_rows
        )

    def entry_strings(self) -> tuple[tuple[str, ...], ...]:
        """The rows as canonical fraction strings; made once, or kept from a loaded document."""
        if self._strs is None:
            strs = []
            for pairs, d in self.int_rows:
                row = ["0"] * len(self.col_keys)
                for j, x in pairs:
                    g = gcd(x, d)
                    row[j] = str(x // g) if g == d else f"{x // g}/{d // g}"
                strs.append(tuple(row))
            self._strs = tuple(strs)
        return self._strs

    def _head(self) -> dict:
        return {
            "version": LIBRARY_VERSION,
            "source": self.source,
            "target": self.target,
            "n": self.degree,
            "key_order": {
                "rows": [key_to_obj(self.source, k) for k in self.row_keys],
                "cols": [key_to_obj(self.target, k) for k in self.col_keys],
            },
        }

    def payload(self) -> dict:
        doc = self._head()
        doc["rows"] = [list(row) for row in self.entry_strings()]
        return doc

    def to_json_doc(self) -> dict:
        doc = self.payload()
        if self._sum is None:
            self._sum = _checksum(doc)
        doc["checksum"] = self._sum
        return doc

    def json_text(self) -> str:
        """The document as the cache stores and the CLI prints it; rendered once.

        The bytes are json.dumps(self.to_json_doc(), indent=2) plus a
        newline.  Only the head goes through the encoder; the entry rows
        are canonical fraction strings (digits, "-" and "/", nothing to
        escape) joined into the indent-2 layout directly.
        """
        if self._text is None:
            doc = self.to_json_doc()
            doc["rows"] = [None] if self.int_rows else []
            head, _, tail = json.dumps(doc, indent=2).rpartition("    null")
            body = ",\n".join(
                ['    [\n      "' + '",\n      "'.join(row) + '"\n    ]' if row else "    []"
                 for row in self.entry_strings()]
            )
            self._text = head + body + tail + "\n"
        return self._text

    @classmethod
    def from_json_doc(cls, doc: dict) -> "TransitionMatrix":
        """The matrix of a document whose checksum holds; raises CacheError if it does not.

        A document in canonical form (canonical entry strings, nothing
        beyond the payload's fields) keeps its strings and checksum for
        re-rendering; any other valid document re-renders canonically.
        """
        payload = {k: v for k, v in doc.items() if k != "checksum"}
        if doc.get("checksum") != _checksum(payload):
            raise CacheError("checksum mismatch")
        rows = doc["rows"]
        parsed, canonical = _parse_entries(rows)
        row_keys = [key_from_obj(doc["source"], o) for o in doc["key_order"]["rows"]]
        col_keys = [key_from_obj(doc["target"], o) for o in doc["key_order"]["cols"]]
        _check_shape(rows, row_keys, col_keys)
        int_rows = [_ratio_row([(j, *parsed[x]) for j, x in enumerate(row) if x != "0"]) for row in rows]
        matrix = cls._of(doc["source"], doc["target"], doc["n"], row_keys, col_keys, int_rows)
        if canonical:
            matrix._strs = tuple(map(tuple, rows))
            del payload["rows"]
            if (
                type(rows) is list
                and all(type(row) is list for row in rows)
                and _canonical_json(payload) == _canonical_json(matrix._head())
            ):  # the document is its own canonical rendering
                matrix._sum = doc["checksum"]
        return matrix


def _parse_entries(rows) -> tuple[dict, bool]:
    """Each distinct entry of the rows -> its lowest terms, and whether all are canonical strings.

    A canonical string (the str of its Fraction) is read through int();
    any other entry goes to Fraction itself, which raises for a bad one.
    """
    parsed = {"0": (0, 1)}
    canonical = True
    for x in set().union(*rows) - {"0"}:
        try:
            num, slash, den = x.partition("/")
            f = Fraction(int(num), int(den)) if slash else Fraction(int(num))
            if str(f) == x:
                parsed[x] = f.as_integer_ratio()
                continue
        except (AttributeError, ValueError, ZeroDivisionError):
            pass
        parsed[x] = Fraction(x).as_integer_ratio()
        canonical = False
    return parsed, canonical


def _check_shape(rows, row_keys, col_keys) -> None:
    if len(rows) != len(row_keys) or any(len(r) != len(col_keys) for r in rows):
        raise ValueError("matrix shape does not match key lists")


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict) -> str:
    """SHA-256 of the payload's sorted compact JSON, in hex.

    The interpreter's own SHA-256 module does the hashing: hashlib would
    load OpenSSL for it, which costs more than hashing a document.
    """
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12 and later
        except ImportError:
            from hashlib import sha256
    return sha256(_canonical_json(payload).encode()).hexdigest()


# ---------------------------------------------------------------------------
# curve basis in the operator basis

def b3_in_b2(pair: IncidencePair) -> FockVector:
    """Expansion of a curve-basis key in the operator basis: its row of A."""
    return b3_in_b2_matrix(pair.lam.size).expand(pair)


@lru_cache(maxsize=None)
def b3_in_b2_matrix(n: int) -> TransitionMatrix:
    """Curve basis in the operator basis, A, built in the order (length of lam, value == 0).

    A pair whose lam and mu share no part has a one-part mu: (empty, (1))
    or ((n), (n + 1)); its row is column 0, the pure translate (n, empty)
    and the vacuum at n = 0.  Every other row is ``_curve_row`` from the
    largest part m that lam and mu share; the row of ((n), (n, 1)) strips
    n to the vacuum.  The order builds every term of create_b3(m, src)
    other than the target P before P: src, P stripped of one m, has P's
    value, so every such term has a lam one part shorter, save one.  That
    is the absorption term when P has value 0: (lam, lam with one part m
    raised to m + 1), whose value m > 0 puts it before P in the order.
    """
    keys, built = pair_keys(n), {}
    for pair in sorted(keys, key=lambda p: (p.lam.length, p.value == 0)):
        shared = set(pair.lam.parts) & set(pair.mu.parts)
        built[pair] = _curve_row(pair, max(shared), built) if shared else (((0, 1),), 1)
    return TransitionMatrix._of("b3", "b2", n, keys, operator_keys(n), map(built.get, keys))


@lru_cache(maxsize=None)
def _operator_index(n: int) -> dict[B2Key, int]:
    """Operator key of degree n -> its column."""
    return {k: j for j, k in enumerate(operator_keys(n))}


def _curve_row(pair: IncidencePair, m: int, built: dict) -> tuple[tuple, int]:
    """The stored row of A at pair from a part m shared by lam and mu.

    Strip one copy of m from both to get src and solve create_b3(m, src)
    for the target term: a_-m inserts m into nu, so it relabels the
    columns of src's row of degree n - m, and every other term is read
    from ``built``.  A does not depend on m, which verify checks one step at a time.
    """
    n = pair.lam.size
    src = IncidencePair(remove_part(pair.lam, m), remove_part(pair.mu, m))
    below = b3_in_b2_matrix(n - m)
    terms = create_b3(m, FockVector.unit(src))
    target = int(terms[pair])
    if not target:
        raise RuntimeError(f"target {pair} missing from expansion of {src}")
    word, d = below.int_rows[below._index[src]]
    index, cols = _operator_index(n), below.col_keys
    parts = [(1, ([(index[B2Key(cols[j].i, insert_part(cols[j].nu, m))], x) for j, x in word], d))]
    parts += [(-int(c), built[q]) for q, c in terms.items() if q != pair]
    acc, den = _combine(parts, len(index))
    return _stored_row(enumerate(acc), den * target)


def _expansion_matrix(source, target, n, row_keys, col_keys, expand) -> TransitionMatrix:
    """Matrix whose row for key k is stored from the nonzero terms of the vector expand(k).

    The one builder of operator tables: the conjugated operators, the n-point curve
    classes, the counted p -> m matrix and the a_-m and t tables of A^-1."""
    index = {q: j for j, q in enumerate(col_keys)}
    rows = [sorted((index[q], *c.as_integer_ratio()) for q, c in expand(k).items()) for k in row_keys]
    return TransitionMatrix._of(source, target, n, row_keys, col_keys, map(_ratio_row, rows))


def _gram(a: TransitionMatrix, weight) -> TransitionMatrix:
    """G = A W A^T with W = diag(weight) over the column keys of A, as A @ (W A^T)."""
    return a @ _transport_inverse(a, lambda k: 1, weight)


@lru_cache(maxsize=None)
def gram_b3(n: int) -> TransitionMatrix:
    """Gram matrix of the curve basis under the operator-basis pairing.

    G = A Z A^T with A = b3_in_b2 and Z = diag z(nu).
    """
    return _gram(b3_in_b2_matrix(n), lambda k: z_factor(k.nu))


# ---------------------------------------------------------------------------
# the Gram solve, the oracle for M = b3_in_b1, and the integer kernels

def _gram_solve(keys, sort_key, gram, diagonal, weight):
    """Recover M from G = M diag(weight) M^T with known diagonal.

    M is lower triangular along the given linear extension of the
    keys.  Rows are processed upward; each off-diagonal entry is
    isolated from the pairing with an already-finished row, and each
    finished row must reproduce its Gram diagonal exactly.  Weights are
    evaluated once per key, and the sums run over the nonzero entries
    of the row being built only.
    """
    order = sorted(range(len(keys)), key=lambda i: sort_key(keys[i]))
    w = [weight(k) for k in keys]
    m = [[Fraction(0)] * len(keys) for _ in keys]
    for rank, ip in enumerate(order):
        row = m[ip]
        support = []  # columns of the nonzero entries of row ip found so far
        for iq in order[:rank]:
            other = m[iq]
            acc = sum((row[it] * other[it] * w[it] for it in support if other[it]), Fraction(0))
            val = (gram[ip][iq] - acc) / (other[iq] * w[iq])
            if val:
                row[iq] = val
                support.append(iq)
        row[ip] = diagonal(keys[ip])
        support.append(ip)
        check = sum((row[it] ** 2 * w[it] for it in support), Fraction(0))
        if check != gram[ip][ip]:
            msg = f"diagonal consistency failed at {keys[ip]!r}: {check} != {gram[ip][ip]}"
            raise ArithmeticError(msg)
    return m


def _stored_row(pairs, den: int) -> tuple[tuple, int]:
    """The row of (column, integer) pairs over den > 0, columns ascending, stored; zeros drop."""
    pairs = [(j, x) for j, x in pairs if x]
    g = gcd(den, *[x for _, x in pairs])
    return tuple((j, x // g) for j, x in pairs) if g > 1 else tuple(pairs), den // g


def _ratio_row(entries) -> tuple[tuple, int]:
    """The stored row of sparse entries (column, p, q) for p/q: columns ascending, q of any sign."""
    d = lcm(*[q for _, _, q in entries])
    return _stored_row([(j, p * (d // q)) for j, p, q in entries], d)


def _combine(terms, width: int) -> tuple[list[int], int]:
    """Sum of c * N / d over terms (c, (nonzero (column, integer) pairs of N, d)).

    The sum comes back as integers over one denominator; c is a Fraction
    or an int, and every product and sum runs in integers.
    """
    den = lcm(*{c.denominator * d for c, (_, d) in terms})
    acc = [0] * width
    for c, (nonzero, d) in terms:
        f = c.numerator * (den // (c.denominator * d))
        for j, x in nonzero:
            acc[j] += f * x
    return acc, den


@lru_cache(maxsize=None)
def b2_in_b3(n: int) -> TransitionMatrix:
    """Operator basis in the curve basis, A^-1, in closed form from the words t^i a_-nu.

    On curve keys t is translate_b3 and a_-m is create_b3(m, -), both with
    integer coefficients: row (i, nu) with i > 0 is t of row (i - 1, nu) of
    degree n - 1, row (0, nu) is a_-m of row (0, nu - m) of degree n - m, m
    the smallest part of nu, and row (0, empty) is the vacuum pair (empty, (1)).
    Each operator is tabulated once on the pairs it acts on.
    """
    keys = pair_keys(n)
    if not n:
        return TransitionMatrix._of("b2", "b3", 0, operator_keys(0), keys, [(((0, 1),), 1)])
    tables = {}  # m -> the rows of a_-m, or of t for m = 0, on each pair it acts on
    rows = []
    for i, nu in operator_keys(n):
        m = 0 if i else nu[-1]
        below = b2_in_b3(n - max(m, 1))
        if m not in tables:
            op = (lambda u: create_b3(m, u)) if m else translate_b3_linear
            image = lambda p: op(FockVector.unit(p))
            tables[m] = _expansion_matrix("b3", "b3", below.degree, below.col_keys, keys, image).int_rows
        word_key = B2Key(i - 1, nu) if i else B2Key(0, remove_part(nu, m))
        word, d = below.int_rows[below._index[word_key]]
        acc, den = _combine([(x, tables[m][j]) for j, x in word], len(keys))
        rows.append(_stored_row(enumerate(acc), den * d))
    return TransitionMatrix._of("b2", "b3", n, operator_keys(n), keys, rows)


@lru_cache(maxsize=None)
def _translation(n: int) -> TransitionMatrix:
    """Translation from degree n to n + 1 in fixed-point coordinates.

    A checked identity, fitted from the exact matrices: [lam, mu] goes to the
    sum over rho = mu + one cell of h(mu) / (h(rho) (c(rho/mu) - c(mu/lam))) [mu, rho],
    with c(cell) = column - row and h(mu)^2 / h(mu, rho) = h(mu) / h(rho).  An addable
    and a removable cell of mu never share a diagonal, so no denominator is 0.
    """
    src, dst = pair_keys(n), pair_keys(n + 1)
    content = lambda p: p.added_cell.col - p.added_cell.row
    cols: dict[Partition, list] = {}
    for j, q in enumerate(dst):
        cols.setdefault(q.lam, []).append((j, h_pair(q), content(q)))
    row = lambda p: [(j, hook_product(p.mu) ** 2, h * (c - content(p))) for j, h, c in cols[p.mu]]
    return TransitionMatrix._of("b1", "b1", n, src, dst, [_ratio_row(row(p)) for p in src])


@lru_cache(maxsize=None)
def b2_in_b1(n: int) -> TransitionMatrix:
    """Operator basis in the fixed-point basis, B, in closed form.

    The rows (i, nu) with i > 0 translate the rows (i - 1, nu) of degree
    n - 1, listed in the same order; row (0, nu) holds
    h(lam) chi^lam(nu) / h(lam, mu) = chi^lam(nu) / h(mu) at [lam, mu].
    """
    pairs = pair_keys(n)
    rows = list((b2_in_b1(n - 1) @ _translation(n - 1)).int_rows) if n else []
    den = lcm(*map(h_pair, pairs))
    scale = [(p.lam, hook_product(p.lam) * (den // h_pair(p))) for p in pairs]
    for nu in partition_keys(n):
        rows.append(_stored_row(enumerate([s * character(lam, nu) for lam, s in scale]), den))
    return TransitionMatrix._of("b2", "b1", n, operator_keys(n), pairs, rows)


@lru_cache(maxsize=None)
def b3_in_b1(n: int) -> TransitionMatrix:
    """Curve basis in the fixed-point basis: M = A B, skipping zeros."""
    return b3_in_b2_matrix(n) @ b2_in_b1(n)


def _transport_inverse(x: TransitionMatrix, row_weight, col_weight) -> TransitionMatrix:
    """Inverse W_c X^T W_r^-1 of a matrix that transports one diagonal pairing to another.

    X W_c X^T = W_r, with W_r = diag(row_weight) over the row keys and
    W_c = diag(col_weight) over the column keys of X, makes the rescaled
    transpose the inverse.
    """
    cols = [[] for _ in x.col_keys]  # X^T W_r^-1 as sparse (column, num, den) entries
    for k, (pairs, d) in enumerate(x.int_rows):
        w = Fraction(row_weight(x.row_keys[k]))
        for t, e in pairs:
            cols[t].append((k, e * w.denominator, d * w.numerator))
    rows = [
        _ratio_row([(k, c.numerator * p, c.denominator * q) for k, p, q in col])
        for c, col in zip(map(Fraction, map(col_weight, x.col_keys)), cols)
    ]
    return TransitionMatrix._of(x.target, x.source, x.degree, x.col_keys, x.row_keys, rows)


@lru_cache(maxsize=None)
def b1_in_b2(n: int) -> TransitionMatrix:
    """Fixed-point basis in the operator basis: C = H B^T Z^-1.

    The pairing-transport law B H B^T = Z, which verify checks, makes
    the inverse of B its transpose rescaled by Z = diag z(nu) and
    H = diag h(lam, mu).
    """
    return _transport_inverse(b2_in_b1(n), lambda k: z_factor(k.nu), h_pair)


@lru_cache(maxsize=None)
def b1_in_b3(n: int) -> TransitionMatrix:
    """Fixed-point basis in the curve basis: M^-1 = C A^-1, skipping zeros."""
    return b1_in_b2(n) @ b2_in_b3(n)


def transition_matrix(source: str, target: str, n: int) -> TransitionMatrix:
    """Change-of-basis matrix between any two of b1, b2, b3 at degree n."""
    if source not in BASIS_TAGS or target not in BASIS_TAGS:
        raise ValueError(f"unknown basis tag: {source!r} or {target!r}")
    if source == target:
        keys = _key_book(source, n)
        units = [(((j, 1),), 1) for j in range(len(keys))]
        return TransitionMatrix._of(source, target, n, keys, keys, units)
    if (source, target) == ("b3", "b2"):
        return b3_in_b2_matrix(n)
    if (source, target) == ("b3", "b1"):
        return b3_in_b1(n)
    if (source, target) == ("b2", "b1"):
        return b2_in_b1(n)
    if (source, target) == ("b1", "b2"):
        return b1_in_b2(n)
    if (source, target) == ("b2", "b3"):
        return b2_in_b3(n)
    return b1_in_b3(n)


# operators conjugated into fixed-point coordinates

@lru_cache(maxsize=None)
def _operator_matrix(op, index, n: int, n_out: int, to_ops, to_fixed) -> TransitionMatrix:
    """op(*index, -) from degree n to n_out in fixed-point coordinates, built once.

    The product S O D of S = to_ops(n), the matrix O of op on the operator
    keys of degree n and D = to_fixed(n_out).
    """
    src, dst = to_ops(n), to_fixed(n_out)
    image = lambda k: op(*index, FockVector.unit(k))
    return src @ _expansion_matrix(src.target, dst.source, n, src.col_keys, dst.row_keys, image) @ dst


def _conjugated(op, index, v: FockVector, n: int, n_out: int, to_ops, to_fixed) -> FockVector:
    """op(*index, -) on a degree-n vector in fixed-point coordinates; 0 if n_out < 0."""
    if not v or n_out < 0:
        return FockVector()
    return _operator_matrix(op, index, n, n_out, to_ops, to_fixed).apply(v)


def b1_creation(m: int, v: FockVector, n: int) -> FockVector:
    """Creation of index m on a degree-n vector in fixed-point coordinates."""
    return _conjugated(creation, (m,), v, n, n + m, b1_in_b2, b2_in_b1)


def b1_annihilation(m: int, v: FockVector, n: int) -> FockVector:
    return _conjugated(annihilation, (m,), v, n, n - m, b1_in_b2, b2_in_b1)


def b1_translate(v: FockVector, n: int) -> FockVector:
    return _translation(n).apply(v)


def b1_cotranslate(v: FockVector, n: int) -> FockVector:
    return _conjugated(cotranslate, (), v, n, n - 1, b1_in_b2, b2_in_b1)


def fixed_creation(m: int, v: FockVector, n: int) -> FockVector:
    """Creation of index m on n-point fixed classes."""
    return _conjugated(hilb_creation, (m,), v, n, n + m, hilb_fixed_in_p, hilb_p_in_fixed)


def fixed_annihilation(m: int, v: FockVector, n: int) -> FockVector:
    return _conjugated(hilb_annihilation, (m,), v, n, n - m, hilb_fixed_in_p, hilb_p_in_fixed)


# ---------------------------------------------------------------------------
# Hilbert side: curve and fixed classes in the creation basis

def hilb_L_in_p(lam: Partition) -> FockVector:
    """n-point curve class in the creation basis: the terms (0, nu) of the
    incidence curve class (lam, lam + (1)) in the operator basis, read as nu."""
    exp = b3_in_b2(IncidencePair(lam, insert_part(lam, 1)))
    return FockVector._wrap({k.nu: c for k, c in exp.items() if not k.i})


@lru_cache(maxsize=None)
def hilb_L_in_p_matrix(n: int) -> TransitionMatrix:
    keys = partition_keys(n)
    return _expansion_matrix("hilb_L", "hilb_p", n, keys, keys, hilb_L_in_p)


@lru_cache(maxsize=None)
def hilb_fixed_in_p(n: int) -> TransitionMatrix:
    """Fixed classes in the creation basis: [lam] = h(lam) s_lam.

    By the Frobenius formula the row of lam holds
    h(lam) chi^lam(nu) / z(nu), with h = hook_product.
    """
    keys = partition_keys(n)
    den = lcm(*map(z_factor, keys))
    row = lambda lam: [hook_product(lam) * character(lam, nu) * (den // z_factor(nu)) for nu in keys]
    rows = [_stored_row(enumerate(row(lam)), den) for lam in keys]
    return TransitionMatrix._of("hilb_fixed", "hilb_p", n, keys, keys, rows)


@lru_cache(maxsize=None)
def hilb_p_in_fixed(n: int) -> TransitionMatrix:
    """Inverse of F = hilb_fixed_in_p as Z F^T diag(hook_product)^-2.

    Character orthogonality, sum_nu chi^lam(nu) chi^mu(nu) / z(nu) =
    delta, gives F Z F^T = diag(hook_product^2), the transport of the
    creation-basis pairing to the fixed-class pairing.
    """
    return _transport_inverse(hilb_fixed_in_p(n), lambda lam: hook_product(lam) ** 2, z_factor)


@lru_cache(maxsize=None)
def hilb_L_in_fixed(n: int) -> TransitionMatrix:
    """Curve classes in the fixed classes: L F^-1 with L = hilb_L_in_p_matrix.

    Triangular along dominance with diagonal 1/hook_product (checked by
    ``verify.suite_phi``).
    """
    return hilb_L_in_p_matrix(n) @ hilb_p_in_fixed(n)


# ---------------------------------------------------------------------------
# persistent cache

def _cache_path(cache_dir, source: str, target: str, n: int) -> Path:
    return Path(cache_dir) / f"{source}--{target}--{n}.json"


def cache_store(matrix: TransitionMatrix, cache_dir) -> Path:
    """Write the matrix document atomically; returns the file path.

    The document goes to a temporary file in the same directory that
    then replaces the target, so a reader never sees a partial write.
    Any OSError raises CacheError, and no failure leaves the temporary file.
    """
    path = _cache_path(cache_dir, matrix.source, matrix.target, matrix.degree)
    # the process and thread ids keep concurrent writers apart
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w") as fh:
            fh.write(matrix.json_text())
        os.replace(tmp, path)
    except OSError as exc:
        raise CacheError(f"cannot write cache file {path}: {exc}") from exc
    finally:
        with suppress(OSError):
            tmp.unlink()
    return path


def cache_load(source: str, target: str, n: int, cache_dir) -> TransitionMatrix | None:
    """Load a stored matrix; None on absence or on a version string that is not ours.

    A file that exists but fails to parse or verify, that has no string
    ``version``, or that holds another matrix than its name says (its
    tags, an integer n and the key books of both bases at n), raises
    CacheError.
    """
    path = _cache_path(cache_dir, source, target, n)
    try:
        doc = json.loads(path.read_text())
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise CacheError(f"unreadable cache file {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("version"), str):
        raise CacheError(f"malformed cache file {path}")
    if doc["version"] != LIBRARY_VERSION:
        return None
    wrong = f"cache file {path} is not the {source}->{target} matrix at n={n}"
    head = (doc.get("source"), doc.get("target"), doc.get("n"))
    if head != (source, target, n) or type(head[2]) is not int:
        raise CacheError(wrong)
    try:
        matrix = TransitionMatrix.from_json_doc(doc)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise CacheError(f"malformed cache file {path}: {exc}") from exc
    if (matrix.row_keys, matrix.col_keys) != (_key_book(source, n), _key_book(target, n)):
        raise CacheError(wrong)
    return matrix
