"""Elements of the Weyl algebra in m variables over the rationals.

Generators are z1..zm and d1..dm with the single relation [di, zi] = 1; all
other pairs commute.  Elements are stored normally ordered (every z factor to
the left of every d factor), so equality of normal forms is equality in the
algebra.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial
from operator import add, mul
from typing import AbstractSet, Iterator

from .base import Scalar, SparseElement, format_terms
from .monomial import Monomial, _check_index, d_monomial, z_monomial
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

    def _left_terms(self, mono: Monomial, coeff: Scalar) -> Iterator[tuple[Monomial, Scalar]]:
        """Terms of (coeff * mono) * self; a monomial may repeat and the
        repeats may cancel, so callers accumulate."""
        if any(mono.dexp):
            return _reordered(mono, coeff, self._terms)
        # z^a (z^c d^e) = z^(a+c) d^e: with no d in the multiplier nothing
        # moves, and each term keeps its d exponents as they are.
        zexp = mono.zexp
        return (
            (Monomial(tuple(map(add, zexp, m2.zexp)), m2.dexp), coeff * c2)
            for m2, c2 in self._terms.items()
        )

    @staticmethod
    def _packed_left_terms(px, u: int, coeff: Scalar, terms) -> Iterator[tuple[int, Scalar]]:
        """``_left_terms`` on packed exponents: the terms of (coeff * u) * g,
        where u is a ``groebner._PackedExponents`` entry and ``terms`` holds
        the terms of g as (entry, coefficient, support) triples.

        A term none of whose z_i meets a d_i of u gives the sum of the
        entries.  The guard bits of u's companion block, shifted down onto
        the position block, meet the term's support where they do.  Each
        meeting variable instead contributes a row of
        ``_reorder_one_variable``: pushing d_i through z_i k times lowers
        both exponents by k and the degree by 2k.
        """
        meets = px.support(u) >> px.half
        if not meets:
            return ((u + t, coeff * c) for t, c, _ in terms)
        return _packed_reordered(px, u, coeff, terms, meets)

    def __str__(self) -> str:
        return format_terms(self, "d")

    def __repr__(self) -> str:
        return f"WeylElement({self.ambient}, {self!s})"


def _reordered(mono: Monomial, coeff: Scalar, terms) -> Iterator[tuple[Monomial, Scalar]]:
    """``WeylElement._left_terms`` when the multiplier z^a d^b has a d:
    (z^a d^b)(z^c d^e) pushes each d_i^{b_i} through z_i^{c_i}.  When no d_i
    meets a z_i of the term, nothing moves and the product is the monomial
    product; else each meeting variable contributes a row of
    ``_reorder_one_variable``."""
    zexp = mono.zexp
    dexp = mono.dexp
    for m2, c2 in terms.items():
        c = coeff * c2
        if not any(map(mul, dexp, m2.zexp)):
            yield mono.mul(m2), c
            continue
        for choice in itertools.product(*map(_reorder_one_variable, dexp, m2.zexp)):
            k = 1
            zout = []
            dout = []
            for (factor, zp, dp), a, e in zip(choice, zexp, m2.dexp):
                k *= factor
                zout.append(a + zp)
                dout.append(e + dp)
            yield Monomial(tuple(zout), tuple(dout)), (c if k == 1 else c * k)


def _packed_reordered(px, u: int, coeff: Scalar, terms, meets: int):
    """``WeylElement._packed_left_terms`` when some d_i of u may meet a z_i;
    ``meets`` marks them, on the z_i guard bits."""
    width = px.width
    half = px.half
    field = px.field
    # One push of d_i through z_i: both exponents and twice the degree drop by 1.
    drop = 2 << px.bits
    for t, c, support in terms:
        c *= coeff
        meet = meets & support
        if not meet:
            yield u + t, c
            continue
        rows = []
        while meet:
            bit = meet & -meet
            meet ^= bit
            start = bit.bit_length() - width
            q = (t >> start) & field
            push = (1 << start) + (1 << (start + half)) - drop
            rows.append([
                (factor, (zp - q) * push)
                for factor, zp, _ in _reorder_one_variable((u >> (start + half)) & field, q)
            ])
        base = u + t
        for choice in itertools.product(*rows):
            k = c
            out = base
            for factor, shift in choice:
                k *= factor
                out += shift
            yield out, k


def z(i: int, ambient: int, power: int = 1) -> WeylElement:
    return WeylElement.from_monomial(z_monomial(i, ambient, power))


def d(i: int, ambient: int, power: int = 1) -> WeylElement:
    return WeylElement.from_monomial(d_monomial(i, ambient, power))


def partial_fourier(element: WeylElement, indices: AbstractSet[int]) -> WeylElement:
    """Apply the partial Fourier automorphism on the 1-based ``indices`` S.

    On those variables z_i -> d_i and d_i -> -z_i; the others are untouched.
    So z^a d^b maps to (-1)^(sum of b_i over S) times the product m1 * m2,
    where m1 holds a_i as a d exponent on S and as a z exponent off S, and
    m2 holds b_i as a z exponent on S and as a d exponent off S.
    """
    for i in indices:
        _check_index(i, element.ambient)
    on = [i + 1 in indices for i in range(element.ambient)]
    terms = []
    for mono, coeff in element:
        a_off, a_on, b_off, b_on = (
            tuple(e if s == side else 0 for s, e in zip(on, exps))
            for exps in (mono.zexp, mono.dexp)
            for side in (False, True)
        )
        sign = -1 if sum(b_on) % 2 else 1
        right = element._make({Monomial(b_on, b_off): 1})
        terms.extend(right._left_terms(Monomial(a_off, a_on), sign * coeff))
    return WeylElement(element.ambient, terms)


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

