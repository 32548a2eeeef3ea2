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

    def __str__(self) -> str:
        return format_terms(self, "zeta")

    def __repr__(self) -> str:
        return f"Poly({self.ambient}, {self!s})"

    def derivative(self, kind: str, index: int) -> "Poly":
        """Formal partial derivative with respect to z_index or zeta_index."""
        if kind not in ("z", "zeta"):
            raise ValueError(f"unknown variable kind {kind!r}")
        if not 1 <= index <= self.ambient:
            raise ValueError(
                f"variable index {index} out of range 1..{self.ambient}"
            )
        slot = index - 1
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in self:
            exps = mono.zexp if kind == "z" else mono.dexp
            e = exps[slot]
            if e == 0:
                continue
            lowered = list(exps)
            lowered[slot] = e - 1
            if kind == "z":
                new = Monomial(tuple(lowered), mono.dexp)
            else:
                new = Monomial(mono.zexp, tuple(lowered))
            # Lowering one exponent is injective, so no two terms meet here.
            out[new] = coeff * e
        return Poly(self.ambient, out)


def poly_z(i: int, ambient: int, power: int = 1) -> Poly:
    return Poly.from_monomial(z_monomial(i, ambient, power))


def poly_zeta(i: int, ambient: int, power: int = 1) -> Poly:
    return Poly.from_monomial(d_monomial(i, ambient, power))
