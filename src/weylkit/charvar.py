"""Characteristic varieties: graded ideals, dimension, multiplicity, simplicity.

Everything is measured through the total-degree filtration on the operator
ring.  Degrevlex refines total degree, so each principal symbol keeps the
leading monomial of its operator, and the symbols of a Groebner basis are a
Groebner basis of the graded ideal (Saito-Sturmfels-Takayama, Groebner
Deformations of Hypergeometric Differential Equations, 2000, section 1.1).
So Buchberger runs once, on the operators, and dimension and multiplicity
then come from the commutative leading-term ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import GroebnerBasis, LeftIdeal, _ideal_from_reduced_basis
from .poly import Poly, poly_z, poly_zeta
from .weyl import WeylElement, principal_symbol


def _require_operator(ideal: LeftIdeal) -> None:
    if not isinstance(ideal.generators[0], WeylElement):
        raise TypeError("expected an ideal of operators")


def _require_symbol(ideal: LeftIdeal) -> None:
    if not isinstance(ideal.generators[0], Poly):
        raise TypeError("expected an ideal of symbol polynomials")


class ImproperIdealError(ValueError):
    """Raised when an operation needs a proper ideal but 1 is a member."""


def graded_ideal(ideal: LeftIdeal) -> LeftIdeal:
    """Commutative ideal of principal symbols of ``ideal``, with its basis.

    The symbols of the reduced operator basis keep its leading monomials and
    a subset of its terms, so they are the reduced Groebner basis of the
    graded ideal.  The returned ideal holds that basis already; its pair
    counters are 0 because no Buchberger run built it.
    """
    _require_operator(ideal)
    if ideal.is_unit():
        raise ImproperIdealError("improper ideal: 1 is a member")
    basis = ideal.groebner_basis()
    if not basis.elements:
        return LeftIdeal([Poly.zero(ideal.ambient)])
    # Each symbol keeps its operator's leading monomial and coefficient 1, so
    # the operator basis's index serves the symbols unchanged.
    return _ideal_from_reduced_basis(
        [principal_symbol(g) for g in basis.elements], basis.leading
    )


def _slot_name(slot: int, m: int) -> str:
    return f"z{slot + 1}" if slot < m else f"zeta{slot - m + 1}"


def _independent_analysis(basis: GroebnerBasis, m: int) -> tuple[int, list[frozenset[int]]]:
    """Largest coordinate subsets avoiding every leading support, and their size.

    A subset T of the 2m slots is independent when no leading monomial lives
    entirely on T; the maximum size is the Krull dimension of the quotient.
    The complements of the largest T are the smallest slot sets meeting every
    support, found by branching on an unmet support with iterative deepening.
    """
    supports = set()
    for lm in basis.leading_monomials():
        mask = 0
        for i, e in enumerate(lm.slots()):
            if e:
                mask |= 1 << i
        supports.add(mask)
    if 0 in supports:
        return -1, []  # unit ideal, empty variety
    # Only inclusion-minimal supports constrain a cover; smallest first, so
    # the first unmet one branches least.
    minimal = sorted(
        (s for s in supports if not any(t != s and t & s == t for t in supports)),
        key=int.bit_count,
    )
    covers: list[int] = []

    def cover(chosen: int, banned: int, budget: int) -> None:
        for s in minimal:
            if not s & chosen:
                break
        else:
            covers.append(chosen)
            return
        if not budget:
            return
        # Branch on each allowed slot of s; later branches ban the earlier
        # slots, so every cover is reached along exactly one path.
        free = s & ~banned
        while free:
            bit = free & -free
            cover(chosen | bit, banned, budget - 1)
            banned |= bit
            free ^= bit

    size = -1
    while not covers:
        size += 1
        cover(0, 0, size)
    full = (1 << 2 * m) - 1
    found = sorted(
        tuple(i for i in range(2 * m) if (full ^ c) >> i & 1) for c in covers
    )
    return 2 * m - size, [frozenset(T) for T in found]


def krull_dimension(graded: LeftIdeal) -> int:
    """Dimension of the zero set of the graded ideal."""
    _require_symbol(graded)
    dim, _ = _independent_analysis(graded.groebner_basis(), graded.ambient)
    if dim == -1:
        raise ImproperIdealError("improper ideal: 1 is a member")
    return dim


# -- Hilbert series of a monomial ideal -------------------------------------
# Numerators are dense integer coefficient lists in the series variable.


def _poly_add_shifted(a: list[int], b: list[int], shift: int) -> list[int]:
    """a + t^shift * b."""
    out = list(a) + [0] * max(0, shift + len(b) - len(a))
    for i, c in enumerate(b):
        out[shift + i] += c
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
    kept: list[tuple[int, ...]] = []
    for g in sorted(set(gens), key=lambda g: (sum(g), g)):
        for h in kept:
            for a, b in zip(h, g):
                if a > b:
                    break
            else:
                break  # h divides g
        else:
            kept.append(g)
    return kept


def _hilbert_numerator(gens: list[tuple[int, ...]]) -> list[int]:
    """Numerator of the Hilbert series of R/(gens) over (1-t)^slots.

    Bigatti's pivot (J. Pure Appl. Algebra 119, 1997): with p = x^e, x the
    slot most generators share and e their median exponent there,
    N(I) = N(I + p) + t^e N(I : p); pairwise coprime generators give
    prod(1 - t^deg g).  One call memoises ideals by their interreduced
    generators.
    """
    memo: dict[tuple[tuple[int, ...], ...], list[int]] = {}

    def numerator(gens: list[tuple[int, ...]]) -> list[int]:
        key = tuple(_interreduce_monomials(gens))
        known = memo.get(key)
        if known is not None:
            return known
        counts = [0] * len(key[0]) if key else []
        for g in key:
            for i, e in enumerate(g):
                if e:
                    counts[i] += 1
        if max(counts, default=0) <= 1:
            known = [1]
            for g in key:
                known = _poly_add_shifted(known, [-c for c in known], sum(g))
        else:
            x = counts.index(max(counts))
            # A minimal generator that is a pure power of x has a larger
            # exponent there than every other one, so p is not in I.
            exps = sorted(g[x] for g in key if g[x] and g[x] != sum(g))
            e = exps[len(exps) // 2]
            power = tuple(e if i == x else 0 for i in range(len(counts)))
            colon = [g[:x] + (max(g[x] - e, 0),) + g[x + 1 :] for g in key]
            known = _poly_add_shifted(numerator([*key, power]), numerator(colon), e)
        memo[key] = known
        return known

    return numerator(gens)


def multiplicity(graded: LeftIdeal) -> int:
    """Hilbert multiplicity of the graded quotient (counts top-dimensional mass)."""
    _require_symbol(graded)
    basis = graded.groebner_basis()
    m = graded.ambient
    gens = [lm.slots() for lm in basis.leading_monomials()]
    numerator = _hilbert_numerator(gens)
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


@dataclass(frozen=True)
class HolonomicityCertificate:
    """Outcome of the holonomicity and simplicity analysis of a cyclic module.

    ``simple`` is "yes" when the module is holonomic with multiplicity one,
    and "no" when the module is not holonomic (so it cannot be a simple
    holonomic system); anything the certificate cannot settle is
    "undetermined".  ``vanishing`` names the coordinate slots that cut out
    the characteristic variety when it is provably the conormal variety of a
    coordinate subspace, and is None otherwise.
    """

    dimension: int
    multiplicity: int
    verdict: str
    simple: str
    vanishing: tuple[str, ...] | None

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


def _conormal_vanishing(
    graded: LeftIdeal, independent: list[frozenset[int]]
) -> tuple[str, ...] | None:
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
    allowed by the Bernstein inequality.  Multiplicity is additive on
    holonomic modules and at least 1 on nonzero ones, so a holonomic module
    of multiplicity 1 is simple: ``simple`` is "yes", and ``vanishing`` names
    the variety when it is a coordinate conormal (else None).  At higher
    multiplicity ``simple`` is "undetermined".  A non-holonomic module is not
    a simple holonomic system, so its ``simple`` field is "no".
    """
    _require_operator(ideal)
    m = ideal.ambient
    graded = graded_ideal(ideal)
    dim, independent = _independent_analysis(graded.groebner_basis(), m)
    _assert_bernstein(dim, m)
    mult = multiplicity(graded)
    if dim != m:
        return HolonomicityCertificate(dim, mult, "non-holonomic", "no", None)
    if mult != 1:
        return HolonomicityCertificate(dim, mult, "holonomic", "undetermined", None)
    vanishing = _conormal_vanishing(graded, independent)
    return HolonomicityCertificate(dim, mult, "holonomic", "yes", vanishing)
