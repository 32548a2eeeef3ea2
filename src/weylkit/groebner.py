"""Left Groebner bases for ideals of operators or commutative polynomials.

Everything runs under the one degrevlex term order of ``orders``.  Division
and Buchberger run identically in both rings because leading monomials stay
multiplicative: every noncommutative correction term is a proper divisor of
the commutative product, hence strictly smaller under the term order.  The
only place the two modes differ is the pair-skipping criterion, which is
unsound in the operator ring unless the two generators actually commute
(disjoint variable support); the coprime-leading-monomial shortcut alone
fails already for the pair (d1, z1).
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .base import SparseElement
from .monomial import Monomial
from .orders import DEFAULT_ORDER
from .poly import Poly

PAIR_LIMIT_ENV = "WEYLKIT_GB_MAX_PAIRS"


class PairLimitExceeded(RuntimeError):
    pass


def _pair_limit() -> int | None:
    raw = os.environ.get(PAIR_LIMIT_ENV)
    if raw is None:
        return None
    try:
        limit = int(raw)
    except ValueError as exc:
        raise ValueError(f"{PAIR_LIMIT_ENV} must be an integer, got {raw!r}") from exc
    if limit < 1:
        raise ValueError(f"{PAIR_LIMIT_ENV} must be positive, got {limit}")
    return limit


def reduce_element(
    element: SparseElement,
    basis: Sequence[SparseElement],
    track: bool = False,
):
    """Left division of ``element`` by ``basis``.

    Returns the normal form, or ``(normal_form, cofactors)`` with
    ``element == sum(cofactors[i] * basis[i]) + normal_form`` when ``track``
    is set.  Terms are processed from the top down; the first basis element
    whose leading monomial divides wins.
    """
    return _divide(element, basis, _division_data(basis, type(element), element.ambient), track)


def _division_data(
    basis: Sequence[SparseElement], kind: type, ambient: int
) -> list[tuple[Monomial, Fraction]]:
    """Check that ``basis`` holds nonzero elements of one ring; list its leading terms."""
    for g in basis:
        if type(g) is not kind:
            raise TypeError("mixed element types in division")
        if g.ambient != ambient:
            raise ValueError("ambient mismatch in division")
        if g.is_zero():
            raise ValueError("zero divisor in basis")
    return [(g.leading_monomial(), g.leading_coefficient()) for g in basis]


def _divide(
    element: SparseElement,
    basis: Sequence[SparseElement],
    leading: Sequence[tuple[Monomial, Fraction]],
    track: bool,
):
    """``reduce_element`` on a checked basis, given its leading terms.

    The live terms sit in a dict and their monomials in a heap that pops the
    largest first (Monagan-Pearce style).  Every term a division step adds
    lies strictly below that step's leading monomial, so a heap entry whose
    term has already cancelled or moved to the remainder is simply skipped.
    """
    kind = type(element)
    ambient = element.ambient
    heap_key = DEFAULT_ORDER.heap_key
    work = dict(element.terms)
    heap = [(heap_key(mono), mono) for mono in work]
    heapq.heapify(heap)
    remainder: dict[Monomial, Fraction] = {}
    cofactors: list[dict[Monomial, Fraction]] = [{} for _ in basis]
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.get(mono)
        if coeff is None:
            continue
        for i, (lm, lc) in enumerate(leading):
            if lm.divides(mono):
                quotient = mono.quotient(lm)
                factor = coeff / lc
                for term, c in kind.from_monomial(quotient, factor) * basis[i]:
                    acc = work.get(term)
                    if acc is None:
                        work[term] = -c
                        heapq.heappush(heap, (heap_key(term), term))
                    elif acc == c:
                        del work[term]
                    else:
                        work[term] = acc - c
                cofactors[i][quotient] = factor
                break
        else:
            remainder[mono] = work.pop(mono)
    if track:
        return kind(ambient, remainder), [kind(ambient, cof) for cof in cofactors]
    return kind(ambient, remainder)


def s_polynomial(f: SparseElement, g: SparseElement) -> SparseElement:
    kind = type(f)
    lm_f = f.leading_monomial()
    lm_g = g.leading_monomial()
    lcm = lm_f.lcm(lm_g)
    left = kind.from_monomial(lcm.quotient(lm_f), 1 / f.terms[lm_f])
    right = kind.from_monomial(lcm.quotient(lm_g), 1 / g.terms[lm_g])
    return left * f - right * g


def _may_skip_pair(f: SparseElement, g: SparseElement) -> bool:
    lm_f = f.leading_monomial()
    lm_g = g.leading_monomial()
    if not lm_f.coprime(lm_g):
        return False
    if isinstance(f, Poly):
        return True
    # Operators: the classical criterion needs the generators to commute,
    # which disjoint variable support guarantees.
    return not (f.index_support() & g.index_support())


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced left Groebner basis, monic, sorted ascending by leading monomial."""

    elements: tuple[SparseElement, ...]
    pairs_processed: int
    reductions_to_zero: int

    @property
    def ambient(self) -> int:
        if not self.elements:
            raise ValueError("empty basis has no ambient")
        return self.elements[0].ambient

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial() for g in self.elements)

    @cached_property
    def _leading(self) -> list[tuple[Monomial, Fraction]]:
        """Division data, checked and built once."""
        return _division_data(self.elements, type(self.elements[0]), self.ambient)

    def reduce(self, element: SparseElement, track: bool = False):
        if not self.elements:
            if track:
                return element, []
            return element
        leading = self._leading
        if type(element) is not type(self.elements[0]):
            raise TypeError("mixed element types in division")
        if element.ambient != self.ambient:
            raise ValueError("ambient mismatch in division")
        return _divide(element, self.elements, leading, track)

    def contains(self, element: SparseElement) -> bool:
        if element.is_zero():
            return True
        if not self.elements:
            return False
        return self.reduce(element).is_zero()

    def is_unit_ideal(self) -> bool:
        return any(g.leading_monomial().is_unit() for g in self.elements)


def buchberger(generators: Sequence[SparseElement]) -> GroebnerBasis:
    """Reduced left Groebner basis of the left ideal spanned by ``generators``.

    Pairs are processed in normal-selection order (lcm degree, then the term
    order on the lcm, then age).  A pair budget from the WEYLKIT_GB_MAX_PAIRS
    environment variable aborts runaway computations.
    """
    limit = _pair_limit()
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return GroebnerBasis((), 0, 0)
    kind = type(gens[0])
    ambient = gens[0].ambient
    for g in gens:
        if type(g) is not kind:
            raise TypeError("mixed element types in generators")
        if g.ambient != ambient:
            raise ValueError("ambient mismatch in generators")

    basis = [g.monic() for g in gens]
    leading = _division_data(basis, kind, ambient)
    queue: list[tuple[int, tuple, int, int]] = []

    def push_pairs(j: int) -> None:
        lm_j = basis[j].leading_monomial()
        for i in range(j):
            lcm = basis[i].leading_monomial().lcm(lm_j)
            heapq.heappush(queue, (lcm.total_degree(), DEFAULT_ORDER.key(lcm), i, j))

    for j in range(len(basis)):
        push_pairs(j)

    processed = 0
    zero_reductions = 0
    while queue:
        _, _, i, j = heapq.heappop(queue)
        processed += 1
        if limit is not None and processed > limit:
            raise PairLimitExceeded(
                f"Groebner pair budget of {limit} exhausted "
                f"(set {PAIR_LIMIT_ENV} to raise it)"
            )
        if _may_skip_pair(basis[i], basis[j]):
            continue
        remainder = _divide(s_polynomial(basis[i], basis[j]), basis, leading, False)
        if remainder.is_zero():
            zero_reductions += 1
            continue
        basis.append(remainder.monic())
        leading += _division_data(basis[-1:], kind, ambient)
        push_pairs(len(basis) - 1)

    return GroebnerBasis(tuple(_interreduce(basis)), processed, zero_reductions)


def _interreduce(basis: list[SparseElement]) -> list[SparseElement]:
    def lead_key(g: SparseElement):
        return DEFAULT_ORDER.key(g.leading_monomial())

    # Minimal first: drop anything whose leading monomial another one divides.
    minimal: list[SparseElement] = []
    for g in sorted(basis, key=lead_key):
        lm = g.leading_monomial()
        if not any(h.leading_monomial().divides(lm) for h in minimal):
            minimal.append(g)
    # Then tail-reduce each against the rest until nothing moves.
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = minimal[:i] + minimal[i + 1 :]
            if not others:
                continue
            replacement = reduce_element(minimal[i], others)
            if replacement.is_zero():
                raise AssertionError("minimal basis element reduced to zero")
            replacement = replacement.monic()
            if replacement != minimal[i]:
                minimal[i] = replacement
                changed = True
    return sorted(minimal, key=lead_key)


class LeftIdeal:
    """Left ideal with a lazily computed reduced Groebner basis."""

    def __init__(self, generators: Sequence[SparseElement]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("an ideal needs at least one generator (use 0 for the zero ideal)")
        ambient = gens[0].ambient
        kind = type(gens[0])
        for g in gens:
            if type(g) is not kind:
                raise TypeError("mixed element types in generators")
            if g.ambient != ambient:
                raise ValueError("ambient mismatch in generators")
        self._generators = gens
        self._ambient = ambient
        self._kind = kind
        self._basis: GroebnerBasis | None = None

    @property
    def generators(self) -> tuple[SparseElement, ...]:
        return self._generators

    @property
    def ambient(self) -> int:
        return self._ambient

    @property
    def mode(self) -> str:
        return "commutative" if issubclass(self._kind, Poly) else "weyl"

    def groebner_basis(self) -> GroebnerBasis:
        if self._basis is None:
            self._basis = buchberger(self._generators)
        return self._basis

    def reduce(self, element: SparseElement, track: bool = False):
        return self.groebner_basis().reduce(element, track=track)

    def contains(self, element: SparseElement) -> bool:
        return self.groebner_basis().contains(element)

    def is_unit(self) -> bool:
        return self.groebner_basis().is_unit_ideal()

    def is_zero(self) -> bool:
        return not self.groebner_basis().elements

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self._generators)
        return f"LeftIdeal[{gens}]"


def ideal_contains(outer: LeftIdeal, inner: LeftIdeal) -> bool:
    """Whether every generator of ``inner`` lies in ``outer``."""
    return all(outer.contains(g) for g in inner.generators)


def ideal_equal(a: LeftIdeal, b: LeftIdeal) -> bool:
    return ideal_contains(a, b) and ideal_contains(b, a)


def module_multiply_ideal(ideal: LeftIdeal, factor: SparseElement) -> list[SparseElement]:
    """Right-multiply every generator: the generators of the module I * factor.

    Right multiplication is not an ideal operation on the left ideal, so the
    result is returned as a plain generator list; containment of I * factor in
    another left ideal J means every listed product lies in J.
    """
    if factor.ambient != ideal.ambient:
        raise ValueError("ambient mismatch in module product")
    return [g * factor for g in ideal.generators]

