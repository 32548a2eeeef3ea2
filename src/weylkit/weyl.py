"""Elements of the Weyl algebra in m variables over the rationals.

Generators are z1..zm and d1..dm with the single relation [di, zi] = 1; all
other pairs commute.  Elements are stored normally ordered (every z factor to
the left of every d factor), so equality of normal forms is equality in the
algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import comb, factorial
from operator import mul
from typing import Iterable

from .base import Scalar, SparseElement, format_terms
from .monomial import Monomial, d_monomial, z_monomial
from .poly import Poly


@lru_cache(maxsize=256)
def _reorder_one_variable(p: int, q: int) -> tuple[tuple[int, int, int], ...]:
    """Rewrite d^p z^q in normal order for a single variable.

    Returns a tuple of int triples (coeff, zpow, dpow) with
    d^p z^q = sum_k k! C(p,k) C(q,k) z^(q-k) d^(p-k).  Rows are shared by
    every product that meets the same (p, q); the cache is bounded so that
    huge exponents cannot grow it without limit.
    """
    return tuple(
        (factorial(k) * comb(p, k) * comb(q, k), q - k, p - k)
        for k in range(min(p, q) + 1)
    )


class WeylElement(SparseElement):
    """A normally ordered element of the Weyl algebra."""

    __slots__ = ()

    def _term_product(self, m1: Monomial, m2: Monomial):
        # (z^a d^b)(z^c d^e): push each d_i^{b_i} through z_i^{c_i}.  When no
        # d_i of m1 meets a z_i of m2, nothing moves and the product is m1*m2.
        if not any(map(mul, m1.dexp, m2.zexp)):
            yield m1.mul(m2), 1
            return
        rows = map(_reorder_one_variable, m1.dexp, m2.zexp)
        for choice in itertools.product(*rows):
            coeff = 1
            zexp = []
            dexp = []
            for (c, zp, dp), a, e in zip(choice, m1.zexp, m2.dexp):
                coeff *= c
                zexp.append(a + zp)
                dexp.append(e + dp)
            yield Monomial(tuple(zexp), tuple(dexp)), coeff

    def __str__(self) -> str:
        return format_terms(self, "d")

    def __repr__(self) -> str:
        return f"WeylElement({self.ambient}, {self!s})"


def weyl_constant(value: Scalar, ambient: int) -> WeylElement:
    return WeylElement.constant(value, ambient)


def z(i: int, ambient: int, power: int = 1) -> WeylElement:
    return WeylElement.from_monomial(z_monomial(i, ambient, power))


def d(i: int, ambient: int, power: int = 1) -> WeylElement:
    return WeylElement.from_monomial(d_monomial(i, ambient, power))


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    return a * b - b * a


def normalize(ambient: int, word: Iterable[tuple[str, int, int]], coeff: Scalar = 1) -> WeylElement:
    """Normal form of a product of generator powers given in written order.

    ``word`` lists (kind, index, power) factors with kind "z" or "d".
    """
    result = weyl_constant(coeff, ambient)
    for kind, index, power in word:
        if kind == "z":
            factor = z(index, ambient, power)
        elif kind == "d":
            factor = d(index, ambient, power)
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
        result = result * factor
    return result


@dataclass(frozen=True)
class PartialFourierSpec:
    """Indices along which the Fourier automorphism acts.

    On the chosen indices the substitution is z_i -> d_i, d_i -> -z_i;
    the remaining variables are untouched.
    """

    ambient: int
    indices: frozenset[int]

    def __post_init__(self):
        for i in self.indices:
            if not 1 <= i <= self.ambient:
                raise ValueError(f"variable index {i} out of range 1..{self.ambient}")

    def transforms(self, i: int) -> bool:
        return i in self.indices


def partial_fourier(element: WeylElement, spec: PartialFourierSpec) -> WeylElement:
    """Apply the partial Fourier automorphism to a normally ordered element.

    Each monomial z^a d^b is read as the ordered product of its generator
    powers; images are multiplied in that order and renormalized, which is
    exactly how an algebra automorphism acts on a word.
    """
    if element.ambient != spec.ambient:
        raise ValueError("ambient mismatch between element and transform")
    m = element.ambient
    out = WeylElement.zero(m)
    for mono, coeff in element:
        acc = WeylElement.constant(coeff, m)
        for i in range(1, m + 1):
            p = mono.zexp[i - 1]
            if p:
                acc = acc * (d(i, m, p) if spec.transforms(i) else z(i, m, p))
        for i in range(1, m + 1):
            p = mono.dexp[i - 1]
            if p:
                if spec.transforms(i):
                    acc = acc * z(i, m, p).scaled(Fraction((-1) ** p))
                else:
                    acc = acc * d(i, m, p)
        out = out + acc
    return out


def bernstein_degree(element: WeylElement) -> int:
    """Total degree in all 2m generators; undefined for zero."""
    if element.is_zero():
        raise ValueError("zero element has no Bernstein degree")
    return element.total_degree()


def principal_symbol(element: WeylElement) -> Poly:
    """Top Bernstein-degree part with each d_i replaced by the symbol zeta_i."""
    top = bernstein_degree(element)
    keep = {m: c for m, c in element if m.total_degree() == top}
    return Poly(element.ambient, keep)


def weyl_from_poly(symbol: Poly) -> WeylElement:
    """Read a commutative polynomial in z, zeta as a normally ordered operator."""
    return WeylElement(symbol.ambient, dict(symbol.terms))
