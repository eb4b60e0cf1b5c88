"""Sparse exact-rational vectors and the loop-algebra operators.

The operator basis of degree n consists of the keys (i, nu) with
i + |nu| = n: the class obtained from the vacuum by the nu-indexed
creation operators followed by i translations.  All coefficients are
Fractions; no floating point is used anywhere.

The n-point creation basis is the translation-free part, keys (0, nu)
read as nu, and its creation and annihilation are the ones above.

Every basis with a diagonal pairing (operator, fixed-point, n-point
fixed and n-point creation) pairs through ``diagonal_pairing``; the
named pairings only supply the weight of a key.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Hashable, Iterable, NamedTuple

from .incidence import h_pair
from .partitions import (
    Partition,
    hook_product,
    insert_part,
    partition_keys,
    remove_part,
    z_factor,
)


class B2Key(NamedTuple):
    """Operator-basis key: translation exponent i and creation partition nu."""

    i: int
    nu: Partition

    @property
    def degree(self) -> int:
        return self.i + self.nu.size

    def as_json_obj(self) -> dict:
        return {"i": self.i, "nu": self.nu.as_list()}


VACUUM = B2Key(0, Partition())
_ZERO, _ONE = Fraction(0), Fraction(1)  # shared by absent keys and unit vectors; immutable


def _exact(x) -> Fraction:
    """x as a Fraction if it is an int or a Fraction; TypeError otherwise."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"coefficient must be an int or a Fraction, not {type(x).__name__}")


class FockVector:
    """Finite linear combination of hashable keys with Fraction coefficients.

    Coefficients are ints or Fractions; zeros are never stored.  Instances
    behave as immutable values; all arithmetic returns new vectors.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Hashable, Fraction]] | dict = ()) -> None:
        data: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            c = coeff if type(coeff) is Fraction else _exact(coeff)
            if key in data:
                c += data[key]
            if c:
                data[key] = c
            else:
                data.pop(key, None)
        object.__setattr__(self, "_terms", data)

    @classmethod
    def _wrap(cls, data: dict) -> "FockVector":
        """Vector over ``data``, taken as is: its values are nonzero Fractions."""
        v = object.__new__(cls)
        object.__setattr__(v, "_terms", data)
        return v

    def __setattr__(self, name, value):
        raise AttributeError("FockVector is immutable")

    @classmethod
    def unit(cls, key: Hashable) -> "FockVector":
        return cls._wrap({key: _ONE})

    @classmethod
    def zero(cls) -> "FockVector":
        return cls()

    def items(self):
        return self._terms.items()

    def keys(self):
        return self._terms.keys()

    def __getitem__(self, key) -> Fraction:
        return self._terms.get(key, _ZERO)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "FockVector") -> "FockVector":
        return self._merged(other, operator.add)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self._merged(other, operator.sub)

    def _merged(self, other: "FockVector", op) -> "FockVector":
        """The sum or the difference, op(self[k], other[k]) on each key k of other; zeros drop."""
        data = dict(self._terms)
        for k, c in other._terms.items():
            s = op(data.get(k, _ZERO), c)
            if s:
                data[k] = s
            elif k in data:
                del data[k]
        return FockVector._wrap(data)

    def __neg__(self) -> "FockVector":
        return FockVector._wrap({k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar) -> "FockVector":
        s = _exact(scalar)
        if not s:
            return FockVector()
        return FockVector._wrap({k: c * s for k, c in self._terms.items()})

    __rmul__ = __mul__

    def map_keys(self, fn: Callable[[Hashable], Hashable]) -> "FockVector":
        """Relabel keys through fn; terms whose new keys coincide are added."""
        data = {fn(k): c for k, c in self._terms.items()}
        if len(data) < len(self._terms):
            return FockVector((fn(k), c) for k, c in self._terms.items())
        return FockVector._wrap(data)

    def __eq__(self, other) -> bool:
        return isinstance(other, FockVector) and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "FockVector(0)"
        parts = [f"{c}*{k!r}" for k, c in sorted(self._terms.items(), key=lambda t: repr(t[0]))]
        return "FockVector(" + " + ".join(parts) + ")"


def b2_keys(n: int) -> list[B2Key]:
    """Operator-basis keys of degree n: i descending, nu in reverse-lex order."""
    out = []
    for i in range(n, -1, -1):
        for nu in partition_keys(n - i):
            out.append(B2Key(i, nu))
    return out


def vector_degree(v: FockVector, key_degree: Callable[[Hashable], int]) -> int:
    """Common degree of all keys of a nonzero vector; ValueError if mixed."""
    degrees = {key_degree(k) for k in v.keys()}
    if len(degrees) != 1:
        raise ValueError(f"vector is not homogeneous: degrees {sorted(degrees)}")
    return degrees.pop()


def b2_degree(key: B2Key) -> int:
    return key.degree


def creation(n: int, v: FockVector) -> FockVector:
    """Creation operator of index n >= 1 on the operator basis."""
    if n < 1:
        raise ValueError("creation index must be positive")
    return FockVector._wrap({B2Key(k.i, insert_part(k.nu, n)): c for k, c in v.items()})


def annihilation(n: int, v: FockVector) -> FockVector:
    """Annihilation operator of index n >= 1: (i, nu) -> n*m_n(nu)*(i, nu minus n)."""
    if n < 1:
        raise ValueError("annihilation index must be positive")
    out = {}
    for k, c in v.items():
        m = k.nu.multiplicity(n)
        if m:
            out[B2Key(k.i, remove_part(k.nu, n))] = c * (n * m)
    return FockVector._wrap(out)


def translate(v: FockVector) -> FockVector:
    """Translation operator: (i, nu) -> (i+1, nu)."""
    return translate_pow(v, 1)


def cotranslate(v: FockVector) -> FockVector:
    """Adjoint of translation: (i, nu) -> (i-1, nu) for i >= 1, else 0."""
    return FockVector([(B2Key(k.i - 1, k.nu), c) for k, c in v.items() if k.i >= 1])


def translate_pow(v: FockVector, j: int) -> FockVector:
    if j < 0:
        raise ValueError("translation power must be nonnegative")
    return FockVector._wrap({B2Key(k.i + j, k.nu): c for k, c in v.items()}) if j else v


def loop_action(j: int, n: int, v: FockVector) -> FockVector:
    """Loop-algebra generator: j translations after the Heisenberg operator n.

    Negative n acts by creation of index |n|, positive n by
    annihilation, n = 0 by zero.
    """
    if j < 0:
        raise ValueError("translation power must be nonnegative")
    if n == 0:
        return FockVector()
    w = creation(-n, v) if n < 0 else annihilation(n, v)
    return translate_pow(w, j)


def diagonal_pairing(v: FockVector, w: FockVector, weight: Callable) -> Fraction:
    """Pairing of a basis that is orthogonal, with weight(k) the self-pairing of k."""
    out = _ZERO
    small, big = (v, w) if len(v) <= len(w) else (w, v)
    for k, c in small.items():
        d = big[k]
        if d:
            out += c * d * weight(k)
    return out


def pair_b2(v: FockVector, w: FockVector) -> Fraction:
    """Diagonal pairing on the operator basis with weight z_factor(nu)."""
    return diagonal_pairing(v, w, lambda k: z_factor(k.nu))


def pair_b1(v: FockVector, w: FockVector) -> Fraction:
    """Diagonal pairing on the fixed-point basis with weight h(lam, mu)."""
    return diagonal_pairing(v, w, h_pair)


def pair_hilb_fixed(v: FockVector, w: FockVector) -> Fraction:
    """Diagonal pairing on the n-point fixed basis with weight hook_product^2."""
    return diagonal_pairing(v, w, lambda lam: hook_product(lam) ** 2)


def pair_hilb_p(v: FockVector, w: FockVector) -> Fraction:
    """Diagonal pairing on the n-point creation basis with weight z_factor."""
    return diagonal_pairing(v, w, z_factor)


def _on_n_point(op, n: int, v: FockVector) -> FockVector:
    """op(n, -) of the operator basis on the keys (0, nu) of v, read back as nu."""
    return op(n, v.map_keys(lambda nu: B2Key(0, nu))).map_keys(lambda k: k.nu)


def hilb_creation(n: int, v: FockVector) -> FockVector:
    """Creation on the n-point side: the operator-basis creation on the keys (0, nu)."""
    return _on_n_point(creation, n, v)


def hilb_annihilation(n: int, v: FockVector) -> FockVector:
    """Annihilation on the n-point side: the operator-basis annihilation on the keys (0, nu)."""
    return _on_n_point(annihilation, n, v)
