"""Characteristic varieties: graded ideals, dimension, multiplicity, simplicity.

Everything is measured through the total-degree filtration on the operator
ring.  The graded ideal of a left ideal is generated by the principal symbols
of a Groebner basis under the degree-compatible term order; dimension and
multiplicity then come from the commutative leading-term ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .groebner import GroebnerBasis, LeftIdeal
from .poly import Poly, poly_z, poly_zeta
from .weyl import principal_symbol


def _require_operator(ideal: LeftIdeal) -> None:
    if ideal.mode != "weyl":
        raise TypeError("expected an ideal of operators")


def _require_symbol(ideal: LeftIdeal) -> None:
    if ideal.mode != "commutative":
        raise TypeError("expected an ideal of symbol polynomials")


class ImproperIdealError(ValueError):
    """Raised when an operation needs a proper ideal but 1 is a member."""


def graded_ideal(ideal: LeftIdeal) -> LeftIdeal:
    """Commutative ideal of principal symbols of ``ideal``.

    The symbols of a reduced Groebner basis for the degree-compatible term
    order generate the full graded ideal, and they are themselves a reduced
    basis, so the returned ideal is ready for dimension counting.
    """
    _require_operator(ideal)
    if ideal.is_unit():
        raise ImproperIdealError("improper ideal: 1 is a member")
    basis = ideal.groebner_basis()
    if not basis.elements:
        return LeftIdeal([Poly.zero(ideal.ambient)])
    return LeftIdeal([principal_symbol(g) for g in basis.elements])


def _slot_name(slot: int, m: int) -> str:
    return f"z{slot + 1}" if slot < m else f"zeta{slot - m + 1}"


def _independent_analysis(basis: GroebnerBasis, m: int) -> tuple[int, list[frozenset[int]]]:
    """Largest coordinate subsets avoiding every leading support, and their size.

    A subset T of the 2m slots is independent when no leading monomial lives
    entirely on T; the maximum size is the Krull dimension of the quotient.
    """
    supports = []
    for lm in basis.leading_monomials():
        supports.append(frozenset(i for i, e in enumerate(lm.slots()) if e))
    if frozenset() in supports:
        return -1, []  # unit ideal, empty variety
    slots = range(2 * m)
    for size in range(2 * m, -1, -1):
        found = [
            frozenset(T)
            for T in combinations(slots, size)
            if not any(s <= frozenset(T) for s in supports)
        ]
        if found:
            return size, found
    return -1, []


def krull_dimension(graded: LeftIdeal) -> int:
    """Dimension of the zero set of the graded ideal."""
    _require_symbol(graded)
    basis = graded.groebner_basis()
    m = graded.ambient
    if not basis.elements:
        return 2 * m
    dim, _ = _independent_analysis(basis, m)
    if dim == -1:
        raise ImproperIdealError("improper ideal: 1 is a member")
    return dim


# -- Hilbert series of a monomial ideal -------------------------------------
# Numerators are dense integer coefficient lists in the series variable.


def _poly_sub_shifted(a: list[int], b: list[int], shift: int) -> list[int]:
    out = list(a) + [0] * max(0, shift + len(b) - len(a))
    for i, c in enumerate(b):
        out[shift + i] -= c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_divide_one_minus_t(a: list[int]) -> list[int] | None:
    """Quotient a / (1 - t) if exact, else None."""
    # a(t) = (1 - t) q(t): q_0 = a_0, q_i = a_i + q_{i-1}, remainder a(1).
    if sum(a) != 0:
        return None
    q = []
    acc = 0
    for c in a[:-1]:
        acc += c
        q.append(acc)
    return q if q else [0]


def _interreduce_monomials(gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    gens = sorted(set(gens), key=lambda g: (sum(g), g))
    kept: list[tuple[int, ...]] = []
    for g in gens:
        if not any(all(a <= b for a, b in zip(h, g)) for h in kept):
            kept.append(g)
    return kept


def _hilbert_numerator(gens: list[tuple[int, ...]]) -> list[int]:
    """Numerator of the Hilbert series of R/(gens) over (1-t)^slots.

    The recursion H(I) = H(rest) - t^deg(g) H(rest : g) meets the same
    ideals many times over, so one call memoises them by their interreduced
    generators.
    """
    memo: dict[tuple[tuple[int, ...], ...], list[int]] = {}

    def numerator(gens: list[tuple[int, ...]]) -> list[int]:
        key = tuple(_interreduce_monomials(gens))
        known = memo.get(key)
        if known is not None:
            return known
        if not key:
            known = [1]
        elif all(e == 0 for e in key[0]):
            known = [0]
        else:
            g = key[-1]
            rest = list(key[:-1])
            colon = [tuple(max(a - b, 0) for a, b in zip(h, g)) for h in rest]
            known = _poly_sub_shifted(numerator(rest), numerator(colon), sum(g))
        memo[key] = known
        return known

    return numerator(gens)


def multiplicity(graded: LeftIdeal) -> int:
    """Hilbert multiplicity of the graded quotient (counts top-dimensional mass)."""
    _require_symbol(graded)
    basis = graded.groebner_basis()
    m = graded.ambient
    if not basis.elements:
        return 1
    gens = [lm.slots() for lm in basis.leading_monomials()]
    numerator = _hilbert_numerator(list(gens))
    if all(c == 0 for c in numerator):
        raise ImproperIdealError("improper ideal: 1 is a member")
    stripped = 0
    while True:
        quotient = _poly_divide_one_minus_t(numerator)
        if quotient is None:
            break
        numerator = quotient
        stripped += 1
    pole_order = 2 * m - stripped
    dim = krull_dimension(graded)
    if pole_order != dim:
        raise AssertionError(
            f"Hilbert pole order {pole_order} disagrees with dimension {dim}"
        )
    value = sum(numerator)
    if value <= 0:
        raise AssertionError("multiplicity must be positive for a proper ideal")
    return value


def _assert_bernstein(dim: int, m: int) -> None:
    if not m <= dim <= 2 * m:
        raise AssertionError(
            f"dimension {dim} violates the Bernstein range [{m}, {2 * m}]"
        )


def characteristic_dimension(ideal: LeftIdeal) -> int:
    """Dimension of the characteristic variety of the cyclic quotient module."""
    _require_operator(ideal)
    graded = graded_ideal(ideal)
    dim = krull_dimension(graded)
    _assert_bernstein(dim, ideal.ambient)
    return dim


@dataclass(frozen=True)
class HolonomicityCertificate:
    """Outcome of the holonomicity and simplicity analysis of a cyclic module.

    ``simple`` is "yes" only when the module is holonomic with multiplicity
    one and the characteristic variety is provably the conormal variety of a
    coordinate subspace, and "no" when the module is not holonomic (so it
    cannot be a simple holonomic system); anything the certificate cannot
    settle is "undetermined".
    """

    ambient: int
    dimension: int
    multiplicity: int
    verdict: str
    simple: str
    vanishing: tuple[str, ...] | None

    @property
    def holonomic(self) -> bool:
        return self.verdict == "holonomic"

    def describe(self) -> str:
        parts = [f"dim {self.dimension}", f"mult {self.multiplicity}"]
        parts.append(self.verdict)
        parts.append(f"simple: {self.simple}")
        if self.vanishing:
            parts.append("variety: " + " = ".join(self.vanishing) + " = 0")
        return ", ".join(parts)


def _radical_contains_slot(graded: LeftIdeal, slot: int, bound: int) -> bool:
    m = graded.ambient
    if slot < m:
        gen = poly_z(slot + 1, m)
    else:
        gen = poly_zeta(slot - m + 1, m)
    power = gen
    for _ in range(bound):
        if graded.contains(power):
            return True
        power = power * gen
    return False


def _conormal_vanishing(graded: LeftIdeal, independent: list[frozenset[int]]) -> tuple[str, ...] | None:
    """Certify that the zero set is exactly a coordinate conormal variety.

    Needs a unique maximal independent set picking one slot per variable
    index; its complement C must satisfy both G subset of <C> (every monomial
    of every basis element meets C) and C subset of rad(G) (a pure power of
    each C-slot reduces to zero).  Either failure returns None.
    """
    m = graded.ambient
    if len(independent) != 1:
        return None
    free = independent[0]
    for i in range(m):
        if len(free & {i, m + i}) != 1:
            return None
    vanishing = sorted(set(range(2 * m)) - free)
    basis = graded.groebner_basis()
    for g in basis.elements:
        for mono in g.terms:
            slots = mono.slots()
            if not any(slots[v] for v in vanishing):
                return None
    bound = max(g.total_degree() for g in basis.elements) + 2
    for v in vanishing:
        if not _radical_contains_slot(graded, v, bound):
            return None
    return tuple(_slot_name(v, m) for v in vanishing)


def simplicity_certificate(ideal: LeftIdeal) -> HolonomicityCertificate:
    """Analyze the cyclic module presented by ``ideal``.

    Holonomicity means the characteristic variety has the minimal dimension
    allowed by the Bernstein inequality.  Multiplicity one already forces
    simplicity; the certificate additionally pins the variety down as a
    coordinate conormal before claiming it, and reports "undetermined"
    otherwise.  A non-holonomic module is not a simple holonomic system, so
    its ``simple`` field is "no".
    """
    _require_operator(ideal)
    m = ideal.ambient
    graded = graded_ideal(ideal)
    basis = graded.groebner_basis()
    dim, independent = _independent_analysis(basis, m) if basis.elements else (2 * m, [])
    _assert_bernstein(dim, m)
    mult = multiplicity(graded)
    if dim != m:
        return HolonomicityCertificate(m, dim, mult, "non-holonomic", "no", None)
    if mult != 1:
        return HolonomicityCertificate(m, dim, mult, "holonomic", "undetermined", None)
    vanishing = _conormal_vanishing(graded, independent)
    if vanishing is None:
        return HolonomicityCertificate(m, dim, mult, "holonomic", "undetermined", None)
    return HolonomicityCertificate(m, dim, mult, "holonomic", "yes", vanishing)
