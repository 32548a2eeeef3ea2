"""Characteristic varieties: graded ideals, dimension, multiplicity, simplicity.

Everything is measured through the total-degree filtration on the operator
ring.  Degrevlex refines total degree, so each principal symbol keeps the
leading monomial of its operator, and the symbols of a Groebner basis are a
Groebner basis of the graded ideal (Saito-Sturmfels-Takayama, Groebner
Deformations of Hypergeometric Differential Equations, 2000, section 1.1).
So Buchberger runs once, on the operators, and dimension and multiplicity
then come from the commutative leading-term ideal.

One search for the minimum slot covers of the leading monomials gives both:
the dimension is the number of slots a minimum cover leaves free, and the
multiplicity is a sum of one standard-monomial count per minimum cover
(Sturmfels-Trung-Vogel, Bounds on degrees of projective schemes, Math. Ann.
302, 1995), so no Hilbert series is expanded.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

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
    # the symbols' packed basis is the top-degree part of the operators'.
    return _ideal_from_reduced_basis(
        [principal_symbol(g) for g in basis.elements], basis.packed.symbols()
    )


def _slot_name(slot: int, m: int) -> str:
    return f"z{slot + 1}" if slot < m else f"zeta{slot - m + 1}"


def _independent_analysis(basis: GroebnerBasis, m: int) -> tuple[int, list[frozenset[int]]]:
    """Largest coordinate subsets avoiding every leading support, and their size.

    A subset T of the 2m slots is independent when no leading monomial lives
    entirely on T; the maximum size is the Krull dimension of the quotient.
    The complements of the largest T are the smallest slot sets meeting every
    support.  The slot of a one-slot support is in all of them; the rest are
    found by branching on an unmet support, on an explicit stack, with
    iterative deepening.
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
    forced = 0
    for s in supports:
        if not s & (s - 1):
            forced |= s
    # Only inclusion-minimal unmet supports constrain the rest of a cover;
    # smallest first, so the first unmet one branches least.
    unmet = {s for s in supports if not s & forced}
    minimal = sorted(
        (s for s in unmet if not any(t != s and t & s == t for t in unmet)),
        key=int.bit_count,
    )
    covers: list[int] = []
    size = -1
    while not covers:
        size += 1
        stack = [(forced, 0, size)]
        while stack:
            chosen, banned, budget = stack.pop()
            for s in minimal:
                if not s & chosen:
                    break
            else:
                covers.append(chosen)
                continue
            if not budget:
                continue
            # Branch on each allowed slot of s; later branches ban the earlier
            # slots, so every cover is reached along exactly one path.
            free = s & ~banned
            while free:
                bit = free & -free
                stack.append((chosen | bit, banned, budget - 1))
                banned |= bit
                free ^= bit
    full = (1 << 2 * m) - 1
    found = sorted(
        tuple(i for i in range(2 * m) if (full ^ c) >> i & 1) for c in covers
    )
    return 2 * m - size - forced.bit_count(), [frozenset(T) for T in found]


def krull_dimension(graded: LeftIdeal) -> int:
    """Dimension of the zero set of the graded ideal."""
    _require_symbol(graded)
    dim, _ = _independent_analysis(graded.groebner_basis(), graded.ambient)
    if dim == -1:
        raise ImproperIdealError("improper ideal: 1 is a member")
    return dim


def _standard_count(pure: dict[int, int], mixed: list[tuple[int, dict[int, int]]]) -> int:
    """Standard monomials of an Artinian monomial ideal.

    ``pure`` maps each slot bit to the exponent of its pure power; each
    generator of ``mixed`` is the mask of its slots and its exponent per slot
    bit (bits outside the mask are ignored).  A mixed generator that no pure
    power divides lives on the mixed slots; every other slot only
    contributes the factor of its pure power.  On the mixed slots the count
    goes slot by slot: for an exponent a of the first slot, the standard
    monomials with that exponent are those of the generators with at most a
    there, on the later slots.  That set only changes at a generator's
    exponent, so each run between consecutive exponents is counted once,
    times its length, and the cost follows the number of distinct exponents.
    """
    kept = [
        exps for on, exps in mixed if all(e < pure[b] for b, e in exps.items() if b & on)
    ]
    if not kept:
        return prod(pure.values())
    slots = [b for b in pure if any(b in exps for exps in kept)]
    weight = prod(e for b, e in pure.items() if b not in slots)
    rows = [[pure[b] if s == b else 0 for s in slots] for b in slots]
    rows += [[exps.get(s, 0) for s in slots] for exps in kept]
    last = len(slots) - 1
    total = 0
    stack = [(0, rows, weight)]
    while stack:
        k, rows, weight = stack.pop()
        if k == last:
            total += weight * min(row[k] for row in rows)
            continue
        # Past the pure power of slot k every monomial is in the ideal.
        top = min(row[k] for row in rows if not any(row[k + 1 :]))
        exps = sorted({row[k] for row in rows if row[k] < top})
        for lo, hi in zip(exps, exps[1:] + [top]):
            stack.append((k + 1, [row for row in rows if row[k] <= lo], weight * (hi - lo)))
    return total


def _top_dimensional_count(basis: GroebnerBasis, independent: list[frozenset[int]]) -> int:
    """``multiplicity`` given the maximum independent sets of ``basis``."""
    gens = []
    for lm in basis.leading_monomials():
        exps = {1 << s: e for s, e in enumerate(lm.slots()) if e}
        gens.append((sum(exps), exps))
    total = 0
    for free in independent:
        # Set the slots of T to 1: a generator left on one slot is a pure power.
        cover = ~sum(1 << s for s in free)
        pure: dict[int, int] = {}
        mixed = []
        for mask, exps in gens:
            on = mask & cover
            if on & (on - 1):
                mixed.append((on, exps))
            else:
                e = exps[on]
                if e < pure.get(on, e + 1):
                    pure[on] = e
        total += _standard_count(pure, mixed)
    return total


def multiplicity(graded: LeftIdeal) -> int:
    """Multiplicity of the graded quotient R/M, M its leading-term ideal.

    By the associativity formula e(R/M) is the sum, over the top-dimensional
    minimal primes P of M, of the length of R_P/M_P (Sturmfels-Trung-Vogel,
    Bounds on degrees of projective schemes, Math. Ann. 302, 1995).  For a
    monomial M those are the coordinate primes of the minimum slot covers,
    the complements of the maximum independent sets T.  Inverting the slots
    of T sets them to 1, and the length is the number of standard monomials
    left on the cover.  That ideal is proper, as T meets no support, and
    Artinian: for a slot k outside T, T with k is not independent, so some
    generator is a pure power of k there.
    """
    _require_symbol(graded)
    basis = graded.groebner_basis()
    dim, independent = _independent_analysis(basis, graded.ambient)
    if dim == -1:
        raise ImproperIdealError("improper ideal: 1 is a member")
    return _top_dimensional_count(basis, independent)


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
    basis = graded.groebner_basis()
    dim, independent = _independent_analysis(basis, m)
    _assert_bernstein(dim, m)
    mult = _top_dimensional_count(basis, independent)
    if dim != m:
        return HolonomicityCertificate(dim, mult, "non-holonomic", "no", None)
    if mult != 1:
        return HolonomicityCertificate(dim, mult, "holonomic", "undetermined", None)
    vanishing = _conormal_vanishing(graded, independent)
    return HolonomicityCertificate(dim, mult, "holonomic", "yes", vanishing)
