"""Commutative polynomials in z1..zm and the symbol variables zeta1..zetam.

These carry the associated graded computations: principal symbols live here,
as do the generators of graded ideals.  The monomial type is shared with the
operator ring; only the product differs.
"""

from __future__ import annotations

from typing import Iterator

from .base import Scalar, SparseElement, format_terms
from .monomial import Monomial, d_monomial, z_monomial


class Poly(SparseElement):
    """Element of Q[z1..zm, zeta1..zetam]."""

    __slots__ = ()

    def _term_product(self, m1: Monomial, m2: Monomial):
        yield m1.mul(m2), 1

    def _left_terms(self, mono: Monomial, coeff: Scalar) -> Iterator[tuple[Monomial, Scalar]]:
        for m2, c2 in self._terms.items():
            yield mono.mul(m2), coeff * c2

    @staticmethod
    def _packed_left_terms(px, u: int, coeff: Scalar, terms) -> Iterator[tuple[int, Scalar]]:
        """``_left_terms`` on packed exponents (see ``WeylElement``'s): the
        entries of a product of monomials are the sums of theirs."""
        return ((u + t, coeff * c) for t, c, _ in terms)

    def __str__(self) -> str:
        return format_terms(self, "zeta")

    def __repr__(self) -> str:
        return f"Poly({self.ambient}, {self!s})"


def poly_z(i: int, ambient: int, power: int = 1) -> Poly:
    return Poly.from_monomial(z_monomial(i, ambient, power))


def poly_zeta(i: int, ambient: int, power: int = 1) -> Poly:
    return Poly.from_monomial(d_monomial(i, ambient, power))
