"""Ring structures: the normalized products, the ordinary cup product
of the incidence Hilbert scheme, and the two comparison maps.

The normalized product on the fixed-point basis is diagonal with
eigenvalue (-1)^(n+1) h(lam, mu) at ambient degree n (its n-point
analog has eigenvalue (-1)^n hook_product(lam)^2).  Both run through
``_diagonal_star``, which checks the degrees and multiplies key by key.
The operator-basis product ``star_tilde`` is star_b1 carried to the
fixed points by B = b2_in_b1(n) and back by B^-1 = b1_in_b2(n).  With
the pairing-transport law B H B^T = Z, the fixed-point basis in the
operator basis is H B^T Z^-1, so its structure constants are

    c_ab^c = (-1)^(n+1) z(c)^-1 sum_t B_at B_bt B_ct h(t)^2.

The full tensor is never stored.  B is scaled by the common denominator
D of its entries, so S(a, b, c) = sum_t N_at N_bt N_ct h(t)^2 with
N = D B runs in integers and each constant is one Fraction at the end.
S is symmetric in a, b and c, so ``_sums`` contracts it once per sorted
key triple into a memo kept per degree, and serves both
``product_table`` and ``ordinary_cup``.

An ordinary cohomology class of the degree-n incidence Hilbert scheme
is represented by an operator-basis vector of degree n; the key
(i, nu) has ordinary degree 2(n - length(nu)).  The cup product of
classes that are pure in ordinary degree is the normalized product
followed by the selection of the keys with length(rho) equal to
length(nu1) + length(nu2) - n, scaled by (-1)^(n+1); general classes
are handled by bilinearity.  The rule is forced by the normalization
of the forgetful map, which kills every positive power of the
equivariant parameter.  The unit is read off the same sums: the row of
the degree-0 key (0, (1^n)) must be u_n times the identity, and the
unit is that key over u_n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter, mul

from .basis_change import _operator_index, b1_in_b2, b2_in_b1, pair_keys
from .fock import B2Key, FockVector, b2_degree, vector_degree
from .incidence import h_pair
from .partitions import Partition, hook_product, z_factor


def _diagonal_star(v: FockVector, w: FockVector, n: int, degree, weight) -> FockVector:
    """Product of a basis that multiplies diagonally: k * k = weight(k) k.

    Every key of both operands must have degree(k) == n.
    """
    for vec in (v, w):
        for k in vec.keys():
            if degree(k) != n:
                raise ValueError(f"key {k!r} has degree {degree(k)}, expected {n}")
    out = {}
    for k, c in v.items():
        d = w[k]
        if d:  # one Fraction per key, multiplied out in integers
            out[k] = Fraction(c.numerator * d.numerator * weight(k), c.denominator * d.denominator)
    return FockVector._wrap(out)


def star_b1(v: FockVector, w: FockVector, n: int) -> FockVector:
    """Normalized product in the fixed-point basis of ambient degree n."""
    sign = (-1) ** (n + 1)
    return _diagonal_star(v, w, n, lambda p: p.n, lambda p: sign * h_pair(p))


def star_tilde(v: FockVector, w: FockVector) -> FockVector:
    """Normalized product in the operator basis (degree inferred).

    Both operands go to the fixed points by B = b2_in_b1(n), multiply
    there with star_b1 and come back by B^-1 = b1_in_b2(n).
    """
    if not v or not w:
        return FockVector()
    n = vector_degree(v, b2_degree)
    if vector_degree(w, b2_degree) != n:
        raise ValueError("operands live in different graded pieces")
    b = b2_in_b1(n)
    return b1_in_b2(n).apply(star_b1(b.apply(v), b.apply(w), n))


@lru_cache(maxsize=None)
def _contraction_data(n: int):
    """Degree-n data of the operator-basis product contraction.

    B = b2_in_b1(n) is written as N / D with N integral, D the least
    common multiple of the denominators of its integer rows: the operator
    keys and their index, the dense rows N_a, h(t)^2 per fixed point t,
    the denominators z(c) D^3 per operator key c, the key indices by
    creation length and the memo of S keyed by sorted triple, which
    lives as long as this entry.
    """
    b = b2_in_b1(n)
    den = lcm(*[d for _, d in b.int_rows])
    nums = []
    for pairs, d in b.int_rows:
        row = [0] * len(b.col_keys)
        for j, x in pairs:
            row[j] = x * (den // d)
        nums.append(row)
    keys = b.row_keys
    h2 = tuple(h_pair(p) ** 2 for p in b.col_keys)
    denoms = tuple(z_factor(k.nu) * den**3 for k in keys)
    by_length: dict = {}
    for c, k in enumerate(keys):
        by_length.setdefault(k.nu.length, []).append(c)
    return keys, _operator_index(n), nums, h2, denoms, by_length, {}


def _sums(n: int, pairs, ordinary: bool):
    """Yield (a, b, [(c, sign * S(a, b, c)), ...]) for each pair (a, b) of key indices.

    c runs over the operator keys in order, restricted for the cup
    product to length(c) = length(a) + length(b) - n, and only nonzero
    sums are kept.  The normalized product has sign (-1)^(n+1) and the
    cup product rescales by it once more.  A missing S is contracted
    from the pointwise product of rows a and b and kept in the memo of
    its degree, so each sorted triple is computed once.
    """
    keys, _, nums, h2, _, by_length, memo = _contraction_data(n)
    sign = 1 if ordinary else (-1) ** (n + 1)
    every = range(len(keys))
    for a, b in pairs:
        lo, hi = sorted((a, b))
        targets = by_length.get(keys[a].nu.length + keys[b].nu.length - n, ()) if ordinary else every
        ab = None
        batch = []
        for c in targets:
            t = (lo, hi, c) if c >= hi else (lo, c, hi) if c >= lo else (c, lo, hi)
            s = memo.get(t)
            if s is None:
                if ab is None:
                    ab = list(map(mul, map(mul, nums[a], nums[b]), h2))
                s = memo[t] = sum(map(mul, ab, nums[c]))
            if s:
                batch.append((c, sign * s))
        yield a, b, batch


def product_table(basis: str, n: int, lefts, rights):
    """Yield the nonzero structure constants (a, b, c, coeff) of one product.

    a, b and c index the degree-n keys: pair_keys(n) for "b1",
    operator_keys(n) for "b2" (star_tilde) and "ordinary" (ordinary_cup).
    a runs over lefts, b over rights, c over the keys in order, and coeff
    is the exact constant as a canonical fraction string.  The b1 table
    is its diagonal; the others read S from ``_sums``.
    """
    if basis == "b1":
        sign, keys = (-1) ** (n + 1), pair_keys(n)
        yield from ((a, a, a, str(sign * h_pair(keys[a]))) for a in lefts if a in rights)
        return
    denoms = _contraction_data(n)[4]
    pairs = ((a, b) for a in lefts for b in rights)
    for a, b, batch in _sums(n, pairs, basis == "ordinary"):
        for c, s in batch:
            g = gcd(s, denoms[c])
            p, q = s // g, denoms[c] // g
            yield a, b, c, str(p) if q == 1 else f"{p}/{q}"


def star_hilb(v: FockVector, w: FockVector, n: int) -> FockVector:
    """Normalized product in the n-point fixed basis."""
    sign = (-1) ** n
    return _diagonal_star(v, w, n, lambda lam: lam.size, lambda lam: sign * hook_product(lam) ** 2)


class OrdinaryClass(tuple):
    """Ordinary cohomology class of the degree-n incidence Hilbert scheme.

    A validated tuple (n, vec): construction checks that every key of
    the operator-basis vector vec has degree n, and equality is the
    tuple's, so a class equals the plain tuple (n, vec).
    """

    __slots__ = ()
    n = property(itemgetter(0))
    vec = property(itemgetter(1))

    def __new__(cls, n: int, vec: FockVector) -> "OrdinaryClass":
        for k in vec.keys():
            if k.degree != n:
                raise ValueError(f"key {k!r} has degree {k.degree}, expected {n}")
        return super().__new__(cls, (n, vec))

    def ordinary_degrees(self) -> set[int]:
        return {2 * (self.n - k.nu.length) for k in self.vec.keys()}

    def __add__(self, other: "OrdinaryClass") -> "OrdinaryClass":
        if self.n != other.n:
            raise ValueError("ambient degrees differ")
        return OrdinaryClass(self.n, self.vec + other.vec)

    def __mul__(self, scalar) -> "OrdinaryClass":
        return OrdinaryClass(self.n, self.vec * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"OrdinaryClass({self.n}, {self.vec!r})"


def ordinary_cup(a: OrdinaryClass, b: OrdinaryClass) -> OrdinaryClass:
    """Cup product of ordinary classes on the same incidence Hilbert scheme.

    The structure constants of the key pairs, summed by bilinearity.
    """
    if a.n != b.n:
        raise ValueError("classes live on different incidence Hilbert schemes")
    keys, index, _, _, denoms, _, _ = _contraction_data(a.n)
    pairs = ((index[k], index[l]) for k in a.vec.keys() for l in b.vec.keys())
    out = []
    for x, y, batch in _sums(a.n, pairs, True):
        m = a.vec[keys[x]] * b.vec[keys[y]]
        out += [(keys[c], m * Fraction(s, denoms[c])) for c, s in batch]
    return OrdinaryClass(a.n, FockVector(out))


@lru_cache(maxsize=None)
def _unit_data(n: int) -> tuple[Fraction, FockVector]:
    """Normalization u_n and raw degree-0 generator of the ordinary ring.

    The degree-0 line is spanned by the key (0, (1^n)); the scale u_n
    is fixed by requiring the candidate to act as u_n times the
    identity on every basis class.  Its row of the cup table is read
    straight off ``_sums`` and verified key by key.
    """
    raw = B2Key(0, Partition([1] * n))
    keys, index, _, _, denoms, _, _ = _contraction_data(n)
    u = None
    for _, b, batch in _sums(n, ((index[raw], b) for b in range(len(keys))), True):
        key, row = keys[b], dict(batch)
        c = Fraction(row.pop(b, 0), denoms[b])
        if row:
            raise ArithmeticError(f"degree-0 class does not act diagonally on {key!r}")
        if u is None:
            u = c
        elif u != c:
            raise ArithmeticError(f"inconsistent unit normalization at {key!r}: {c} != {u}")
    if not u:
        raise ArithmeticError(f"unit normalization vanished at degree {n}")
    return u, FockVector.unit(raw)


def ordinary_unit(n: int) -> OrdinaryClass:
    """Multiplicative identity of the degree-n ordinary cohomology ring."""
    u, raw = _unit_data(n)
    return OrdinaryClass(n, raw * (Fraction(1) / u))


def ordinary_unit_scale(n: int) -> Fraction:
    """The factor u_n with unit = (1/u_n) times the raw degree-0 key."""
    return _unit_data(n)[0]


@lru_cache(maxsize=None)
def _pullback_image(mu: Partition, to_f: bool) -> tuple:
    """Terms (pair, weight) of pullback_f([mu]) if to_f, else of pullback_g([mu]).

    The partners are the pairs in pair_keys whose lam (for f) or whose mu (for g) is mu.
    """
    h2 = hook_product(mu) ** 2
    if to_f:
        return tuple((p, -Fraction(h2, h_pair(p))) for p in pair_keys(mu.size) if p.lam == mu)
    return tuple((p, Fraction(h2, h_pair(p))) for p in pair_keys(mu.size - 1) if p.mu == mu)


def pullback_f(v: FockVector) -> FockVector:
    """Comparison map from n-point fixed classes to incidence fixed classes.

    [lam] maps to minus the sum over incidence partners mu of
    hook_product(lam)^2 / h(lam, mu) times [lam, mu].  Each key's image
    is built once and v is mapped by linearity.
    """
    return FockVector([(p, c * w) for lam, c in v.items() for p, w in _pullback_image(lam, True)])


def pullback_g(v: FockVector) -> FockVector:
    """Comparison map from (n+1)-point fixed classes to incidence classes.

    [mu] maps to the sum over incidence partners lam of
    hook_product(mu)^2 / h(lam, mu) times [lam, mu].  Undefined on
    degree 0.  Each key's image is built once and v is mapped by
    linearity.
    """
    out = []
    for mu, c in v.items():
        if mu.size == 0:
            raise ValueError("the map is undefined below one point")
        out.extend((p, c * w) for p, w in _pullback_image(mu, False))
    return FockVector(out)
