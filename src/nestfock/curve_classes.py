"""Curve-class bases and the operator actions on them.

On the incidence side the keys are incidence pairs (lam, mu), standing
for the closure classes of nested loci of points on a fixed axis; these
form the curve basis (b3) of the incidence Fock module.  On the n-point
side the keys are partitions lam (cluster sizes), and the n-point curve
class L_lam is the incidence key (lam, lam + (1)) read as lam: the
n-point creation rule ``nakajima_L`` is ``create_b3`` on these lifted
keys, keeping the image keys of value 0.
"""

from __future__ import annotations

from .fock import FockVector
from .incidence import IncidencePair
from .partitions import Partition, insert_part, remove_part


def add_part(lam: Partition, part: int, m: int) -> Partition:
    """Remove one copy of ``part`` (no-op when 0) and insert part+m.

    This is the multiset surgery lam(part, m) behind all cluster-size
    bookkeeping; ``part`` must be 0 or an existing part value.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if part < 0:
        raise ValueError("part must be nonnegative")
    if part > 0:
        lam = remove_part(lam, part)
    return insert_part(lam, part + m)


def nakajima_L(m: int, v: FockVector) -> FockVector:
    """Creation of index m on the n-point curve basis.

    Each key lam is lifted to (lam, lam + (1)); of the image under
    ``create_b3`` the keys of value 0 are kept, each read as its lam.
    """
    lifted = v.map_keys(lambda lam: IncidencePair(lam, insert_part(lam, 1)))
    return FockVector([(p.lam, c) for p, c in create_b3(m, lifted).items() if p.value == 0])


def translate_b3(pair: IncidencePair) -> IncidencePair:
    """Translation on curve keys: (lam, mu) -> (mu, nu).

    nu raises the distinguished part of mu (the value i+1 created from
    the distinguished value i of the pair) by one more step.
    """
    i = pair.value
    return IncidencePair(pair.mu, add_part(pair.mu, i + 1, 1))


def create_b3(m: int, v: FockVector) -> FockVector:
    """Creation of index m on the incidence curve basis.

    For a key (lam, mu) with distinguished value i the image has two
    kinds of terms:

    * for 0 and each distinct cluster size lam_k that lam and mu share
      (so i >= 1 only when lam holds two copies of it) the key
      (lam(lam_k, m), mu(lam_k, m)), with coefficient the multiplicity
      of lam_k + m in lam(lam_k, m), minus 1 when lam_k + m = i: the
      new cluster cannot play the role of the distinguished one;
    * the absorption term (lam(i, m), mu(i+1, m)) with coefficient 1,
      which is the m-fold translate of the source key.
    """
    if m < 1:
        raise ValueError("creation index must be positive")
    out: list = []
    for pair, c in v.items():
        lam, mu, i = pair.lam, pair.mu, pair.value
        for lam_k in {0} | (set(lam.parts) & set(mu.parts)):
            lam2 = add_part(lam, lam_k, m)
            coeff = lam2.multiplicity(lam_k + m) - (lam_k + m == i)
            if coeff:
                out.append((IncidencePair(lam2, add_part(mu, lam_k, m)), c * coeff))
        out.append((IncidencePair(add_part(lam, i, m), add_part(mu, i + 1, m)), c))
    return FockVector(out)


def translate_b3_linear(v: FockVector) -> FockVector:
    """Linear extension of translate_b3 to curve-basis vectors."""
    return v.map_keys(translate_b3)
