"""Left Groebner bases for ideals of operators or commutative polynomials.

Everything runs under the one degrevlex term order of ``orders``.  Division
and Buchberger run identically in both rings because leading monomials stay
multiplicative: every noncommutative correction term is a proper divisor of
the commutative product, hence strictly smaller under the term order.  So
the syzygies of the leading terms are the commutative ones, and Buchberger's
chain criterion holds in both rings.  The product criterion (coprime leading
monomials) holds only for generators that commute, which disjoint variable
support guarantees; the coprime shortcut alone fails already for the pair
(d1, z1).

Division finds its divisor through a per-slot index of the basis leading
monomials: one bisection per slot and an AND of bitmasks, whatever the basis
size.  A reduced basis carries the index built with it, so an ideal's
divisions never rebuild it; ``reduce_element`` builds one per call.

A reduced basis also keeps a step table, filled as ``LeftIdeal.reduce``
divides: for each monomial it has met, either "irreducible" or the divisor,
the quotient and the terms of quotient * divisor with their heap keys.  A
later read that meets the monomial again skips the divisor search, the
product and the keys; the arithmetic is unchanged, so are the results.
Buchberger, interreduction and ``reduce_element`` divide by a basis that
grows or is used once, and stream each step's product instead.

Buchberger's pair update works on packed exponent vectors: each leading
monomial is packed once, when it enters the basis, into one int with a
field per slot whose top bit is a guard bit.  Divisibility, lcm, coprimality
and the degrevlex key of an lcm then take a few integer operations, with no
Monomial built per pair.  The field width follows the run's own degrees:
when a leading monomial of higher degree arrives, the run repacks what it
holds with wider fields, so a 10**9 exponent takes the same path.

Chain criterion in G-algebras: V. Levandovskyy, PhD thesis, Kaiserslautern 2005.
Pair update: R. Gebauer and H. M. Moeller, J. Symbolic Comput. 6 (1988).
Divisibility index: O. Bachmann and H. Schoenemann, ISSAC 1998.
Packed exponents: M. Monagan and R. Pearce, CASC 2007.
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, getitem
from typing import Callable, Sequence

from .base import Scalar, SparseElement, _accumulate, _exact_quotient
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


class _LeadingTerms:
    """Leading terms of a basis in list order, indexed for divisibility.

    For each slot the index keeps the sorted distinct exponents the leading
    monomials have there, starting at 0, and a parallel list of bitmasks: bit
    i is set when leading monomial i has at most that exponent.  Each mask
    list starts with a 0 pad so that ``bisect_right`` indexes it directly.
    The AND over the slots of the masks a monomial's exponents select holds
    exactly the leading monomials dividing it; the lowest set bit is the
    first of them in list order.  The index grows with the number of leading
    monomials times the number of slots, never with an exponent's size.
    A leading coefficient of 1 is recorded as None, so division by a monic
    element skips the scalar division.
    """

    __slots__ = ("monomials", "coefficients", "_exps", "_masks", "_all")

    def __init__(self, slots: int):
        self.monomials: list[Monomial] = []
        self.coefficients: list[Scalar | None] = []
        self._exps = [[0] for _ in range(slots)]
        self._masks = [[0, 0] for _ in range(slots)]
        self._all = 0

    def add(self, lm: Monomial, lc: Scalar) -> None:
        bit = 1 << len(self.monomials)
        self.monomials.append(lm)
        self.coefficients.append(None if lc == 1 else lc)
        for exps, masks, e in zip(self._exps, self._masks, lm.zexp + lm.dexp):
            k = bisect_left(exps, e)
            if k == len(exps) or exps[k] != e:
                # A new exponent inherits the mask of the one below it.
                exps.insert(k, e)
                masks.insert(k + 1, masks[k])
            for j in range(k + 1, len(masks)):
                masks[j] |= bit
        self._all |= bit

    def first_divisor(self, mono: Monomial) -> int:
        """Index of the first leading monomial dividing ``mono``, else -1."""
        bits = reduce(
            and_,
            map(getitem, self._masks, map(bisect_right, self._exps, mono.zexp + mono.dexp)),
            self._all,
        )
        return (bits & -bits).bit_length() - 1


def reduce_element(
    element: SparseElement,
    basis: Sequence[SparseElement],
    track: bool = False,
):
    """Left division of ``element`` by ``basis``.

    Returns the normal form, or ``(normal_form, cofactors)`` with
    ``element == sum(cofactors[i] * basis[i]) + normal_form`` when ``track``
    is set.  Terms are processed from the top down; the first basis element
    whose leading monomial divides wins.  The leading terms of ``basis`` are
    indexed afresh on every call and no step is kept; ``LeftIdeal.reduce``
    reuses its basis's index and step table.
    """
    _same_ring(basis, type(element), element.ambient, "division")
    leading = _LeadingTerms(2 * element.ambient)
    for g in basis:
        if g.is_zero():
            raise ValueError("zero divisor in basis")
        leading.add(g.leading_monomial(), g.leading_coefficient())
    return _divide(dict(element._terms), element._make, basis, leading, track)


def _same_ring(elements: Sequence[SparseElement], kind: type, ambient: int, what: str) -> None:
    """Raise unless every element is a ``kind`` over ``ambient`` variables."""
    for g in elements:
        if type(g) is not kind:
            raise TypeError(f"mixed element types in {what}")
        if g.ambient != ambient:
            raise ValueError(f"ambient mismatch in {what}")


# A step-table entry for a monomial no leading monomial divides.
_IRREDUCIBLE = "irreducible"


def _divide(
    work: dict[Monomial, Scalar],
    make: Callable[[dict[Monomial, Scalar]], SparseElement],
    basis: Sequence[SparseElement],
    leading: _LeadingTerms,
    track: bool,
    steps: dict | None = None,
):
    """``reduce_element`` on a checked basis, given its indexed leading terms.

    The dividend is ``work``, a dict of terms that the division consumes, so
    Buchberger can accumulate an S-pair there; ``make``, the ``_make`` of any
    element of the ring, wraps the results.  The live terms stay in ``work``
    and their monomials sit in a heap that pops the largest first
    (Monagan-Pearce style).  The divisor of a popped term comes
    from the bitmask index of ``leading`` (Bachmann-Schoenemann style), not a
    scan of the basis, and a monic divisor needs no scalar division.  Each
    step subtracts the terms of quotient * basis[i] one by one, straight from
    the product kernel.  Every term a step adds lies strictly below that
    step's leading monomial, so a heap entry whose term has already cancelled
    or moved to the remainder is simply skipped; a term that cancels and
    then reappears is pushed again.

    ``steps``, when given, is the step table of a basis that no longer
    changes.  It maps each monomial this basis has divided to
    ``_IRREDUCIBLE`` or to its divisor index, quotient, divisor leading
    coefficient and the terms of quotient * basis[i] with their heap
    entries.  The leading term is left out, as it cancels the popped term
    exactly.  A step found there skips the divisor search, the quotient, the
    product and the heap keys; the arithmetic and the order of the work are
    the same, so the normal form and the cofactors are too.
    """
    heap_key = DEFAULT_ORDER.heap_key
    first_divisor = leading.first_divisor
    monomials = leading.monomials
    coefficients = leading.coefficients
    heap = [(heap_key(mono), mono) for mono in work]
    heapq.heapify(heap)
    remainder: dict[Monomial, Scalar] = {}
    cofactors: list[dict[Monomial, Scalar]] = [{} for _ in basis]
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.get(mono)
        if coeff is None:
            continue
        step = None if steps is None else steps.get(mono)
        if step is None:
            i = first_divisor(mono)
            if i < 0:
                step = _IRREDUCIBLE
            else:
                quotient = mono.quotient(monomials[i])
                lc = coefficients[i]
                if steps is None:
                    # No table: stream the product straight into the work.
                    factor = coeff if lc is None else _exact_quotient(coeff, lc)
                    for term, c in basis[i]._left_terms(quotient, factor):
                        acc = work.get(term)
                        if acc is None:
                            work[term] = -c
                            heapq.heappush(heap, (heap_key(term), term))
                        elif acc == c:
                            del work[term]
                        else:
                            work[term] = acc - c
                    cofactors[i][quotient] = factor
                    continue
                terms = basis[i]._left_terms(quotient, 1)
                step = (i, quotient, lc, [
                    (term, c, (heap_key(term), term)) for term, c in terms if term != mono
                ])
            if steps is not None:
                steps[mono] = step
        if step is _IRREDUCIBLE:
            remainder[mono] = work.pop(mono)
            continue
        i, quotient, lc, terms = step
        factor = coeff if lc is None else _exact_quotient(coeff, lc)
        del work[mono]
        for term, c, entry in terms:
            c *= factor
            acc = work.get(term)
            if acc is None:
                work[term] = -c
                heapq.heappush(heap, entry)
            elif acc == c:
                del work[term]
            else:
                work[term] = acc - c
        cofactors[i][quotient] = factor
    if track:
        return make(remainder), [make(cof) for cof in cofactors]
    return make(remainder)


class _PackedExponents:
    """Monomials of a fixed number of slots packed into one int each.

    Slot s takes the bits [s * width, (s + 1) * width), so the last slot sits
    in the top field.  The top bit of every field is a guard bit that stays
    clear in a packed monomial: the width puts twice ``degree`` below it, so
    for monomials of at most that degree every exponent, every lcm of two of
    them and every partial sum of an lcm's fields stays below it too.  Then,
    with G the guard bits,

    * ``((b | G) - a) & G`` has the guard bit of each field where a <= b set,
      as no field borrows from its neighbour: a divides b iff it equals G;
    * the same guard bits, spread over their fields, select the lcm;
    * a and b are coprime iff lcm(a, b) == a + b, as a slot sum stays
      below the guard bit of its field;
    * the total degree is the top field of ``a * ones``, with ``ones`` one
      1 per field, and ``key`` puts it above the complemented fields, the
      last slot on top: degree reverse lexicographic, as ``DEFAULT_ORDER``.

    A monomial of higher degree needs a new, wider packing.
    """

    __slots__ = ("width", "limit", "guard", "ones", "field", "top", "bits")

    def __init__(self, slots: int, degree: int):
        width = (2 * degree).bit_length() + 1
        self.width = width
        self.limit = 1 << (width - 1)
        self.ones = sum(1 << (s * width) for s in range(slots))
        self.guard = self.ones << (width - 1)
        self.field = (1 << width) - 1
        self.top = (slots - 1) * width
        self.bits = slots * width

    def pack(self, mono: Monomial) -> int:
        width = self.width
        out = 0
        for e in reversed(mono.zexp + mono.dexp):
            out = out << width | e
        return out

    def lcm(self, a: int, b: int) -> int:
        ge = ((a | self.guard) - b) & self.guard
        return b ^ ((a ^ b) & (ge - (ge >> (self.width - 1))))

    def key(self, packed: int) -> int:
        """Sorts like ``DEFAULT_ORDER.key`` of the monomial."""
        degree = (packed * self.ones >> self.top) & self.field
        return (degree << self.bits) - packed


def _variable_support(element: SparseElement) -> int:
    """Bit i - 1 is set when z_i or its companion occurs in some term."""
    bits = 0
    for mono in element.terms:
        for i, (a, b) in enumerate(zip(mono.zexp, mono.dexp)):
            if a or b:
                bits |= 1 << i
    return bits


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced left Groebner basis, monic, sorted ascending by leading monomial.

    ``leading`` indexes the leading terms of ``elements`` for division and is
    built with them; no index is added to after a basis holds it.  ``_steps``
    is the step table that ``LeftIdeal.reduce`` fills as it divides (see
    ``_divide``); it lives as long as the basis.  The counters describe the
    Buchberger run that built it: S-pairs reduced, how many of those reduced
    to zero, and pairs skipped by the chain and by the product (commuting
    generators) criterion.
    """

    elements: tuple[SparseElement, ...]
    leading: _LeadingTerms = field(repr=False, compare=False)
    pairs_processed: int
    reductions_to_zero: int
    pairs_skipped_chain: int
    pairs_skipped_commuting: int
    _steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(self.leading.monomials)


def buchberger(generators: Sequence[SparseElement]) -> GroebnerBasis:
    """Reduced left Groebner basis of the left ideal spanned by ``generators``.

    Each new basis element h enters through Gebauer and Moeller's update:

    * an old pending pair (i, j) is dropped when lm_h divides lcm(i, j) and
      lcm(i, h), lcm(j, h) both differ from it;
    * a new pair (i, h) is dropped when another new pair's lcm properly
      divides lcm(i, h); of new pairs with equal lcms only one is kept;
    * a new pair of commuting generators with coprime leading monomials is
      skipped by the product criterion, and drops every new pair whose lcm
      its lcm divides;
    * an element whose leading monomial h's divides gets no further pairs.

    The remaining pairs are reduced in normal-selection order (the term order
    on the lcm, then age).  No S-polynomial is built: the monic multiples
    u * f and v * g go term by term into the division's work dict, where
    their lcm terms cancel.  Every pair of basis elements is counted once:
    in ``pairs_processed`` when reduced, else in ``pairs_skipped_chain`` or
    ``pairs_skipped_commuting``.  A budget of reduced pairs from the
    WEYLKIT_GB_MAX_PAIRS environment variable aborts runaway computations.

    The update runs on ``_PackedExponents``: the pending pairs, the queue
    and the minimality test hold packed lcms and integer keys that sort
    exactly like ``DEFAULT_ORDER.key``.  Each basis element caches its packed
    leading monomial and a bitmask of the variables it involves (0 for
    ``Poly``), so the product criterion is two integer tests: lcm(i, h) is
    the sum of the packed monomials, and the variable masks are disjoint.
    The fields start wide enough for twice the generators' largest degree.
    A leading monomial of higher degree widens them: the leading monomials
    and pending lcms are repacked, and the queue is rebuilt from the pending
    pairs, whose pop order does not change.
    """
    limit = _pair_limit()
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return GroebnerBasis((), _LeadingTerms(0), 0, 0, 0, 0)
    kind = type(gens[0])
    _same_ring(gens, kind, gens[0].ambient, "generators")

    slots = 2 * gens[0].ambient
    commutative = issubclass(kind, Poly)
    px = _PackedExponents(slots, max(g.total_degree() for g in gens))
    basis: list[SparseElement] = []
    leading = _LeadingTerms(slots)
    lms = leading.monomials
    # Per basis element: packed leading monomial and variable support.
    packed: list[int] = []
    supports: list[int] = []
    # Indices whose leading monomial no later one divides: only these get new pairs.
    active: list[int] = []
    pending: dict[tuple[int, int], int] = {}
    queue: list[tuple[int, int, int]] = []
    chain = commuting = 0

    def insert(h: SparseElement) -> None:
        nonlocal px, active, chain, commuting
        h = h.monic()
        lm_h = h.leading_monomial()
        if 2 * lm_h.total_degree() >= px.limit:
            # Widen: repack the leading monomials and the pending lcms, and
            # rebuild the queue from the pending pairs (stale entries drop).
            px = _PackedExponents(slots, lm_h.total_degree())
            packed[:] = map(px.pack, lms)
            for i, k in pending:
                pending[i, k] = px.lcm(packed[i], packed[k])
            queue[:] = [(px.key(lcm), i, k) for (i, k), lcm in pending.items()]
            heapq.heapify(queue)
        guard = px.guard
        lcm_of = px.lcm
        p_h = px.pack(lm_h)
        s_h = 0 if commutative else _variable_support(h)
        j = len(basis)
        for (i, k), lcm in list(pending.items()):
            if (
                ((lcm | guard) - p_h) & guard == guard
                and lcm_of(packed[i], p_h) != lcm
                and lcm_of(packed[k], p_h) != lcm
            ):
                del pending[i, k]
                chain += 1
        chain += j - len(active)
        minimal: list[int] = []
        candidates = []
        for i in active:
            p_i = packed[i]
            lcm = lcm_of(p_i, p_h)
            if lcm == p_i + p_h and not supports[i] & s_h:
                commuting += 1
                minimal.append(lcm)
            else:
                candidates.append((px.key(lcm), i, lcm))
        # Ascending in the term order, every proper divisor comes first.
        candidates.sort()
        for key, i, lcm in candidates:
            guarded = lcm | guard
            for m in minimal:
                if (guarded - m) & guard == guard:
                    chain += 1
                    break
            else:
                minimal.append(lcm)
                pending[i, j] = lcm
                heapq.heappush(queue, (key, i, j))
        active = [i for i in active if ((packed[i] | guard) - p_h) & guard != guard]
        active.append(j)
        basis.append(h)
        packed.append(p_h)
        supports.append(s_h)
        leading.add(lm_h, h.leading_coefficient())

    for g in gens:
        insert(g)

    processed = 0
    zero_reductions = 0
    while queue:
        _, i, j = heapq.heappop(queue)
        if pending.pop((i, j), None) is None:
            continue
        processed += 1
        if limit is not None and processed > limit:
            raise PairLimitExceeded(
                f"Groebner pair budget of {limit} exhausted "
                f"(set {PAIR_LIMIT_ENV} to raise it)"
            )
        lcm = lms[i].lcm(lms[j])
        work: dict[Monomial, Scalar] = {}
        _accumulate(work, basis[i]._left_terms(lcm.quotient(lms[i]), 1))
        _accumulate(work, basis[j]._left_terms(lcm.quotient(lms[j]), -1))
        remainder = _divide(work, basis[i]._make, basis, leading, False)
        if remainder.is_zero():
            zero_reductions += 1
        else:
            insert(remainder)

    reduced, reduced_leading = _interreduce(basis)
    return GroebnerBasis(
        tuple(reduced), reduced_leading, processed, zero_reductions, chain, commuting
    )


def _interreduce(
    basis: list[SparseElement],
) -> tuple[list[SparseElement], _LeadingTerms]:
    """Reduced basis from a nonempty Groebner basis, in one ascending pass,
    with the index of its leading terms.

    Every tail term of an element lies below its leading monomial, so only
    smaller leading monomials can divide it: each minimal element is divided
    by the smaller, already reduced ones and then joins them.
    """
    reduced: list[SparseElement] = []
    leading = _LeadingTerms(2 * basis[0].ambient)
    for g in sorted(basis, key=lambda g: DEFAULT_ORDER.key(g.leading_monomial())):
        lm = g.leading_monomial()
        # Minimal first: drop anything whose leading monomial another one divides.
        if leading.first_divisor(lm) >= 0:
            continue
        g = _divide(dict(g._terms), g._make, reduced, leading, False)
        if g.is_zero() or g.leading_monomial() != lm:
            raise AssertionError("minimal basis element lost its leading term")
        g = g.monic()
        reduced.append(g)
        leading.add(lm, g.leading_coefficient())
    return reduced, leading


def _ideal_from_reduced_basis(
    elements: Sequence[SparseElement], leading: _LeadingTerms
) -> "LeftIdeal":
    """Left ideal whose generators already are its reduced Groebner basis,
    with ``leading`` the index of their leading terms.

    No Buchberger run builds the basis, so its pair counters are all 0.
    """
    ideal = LeftIdeal(elements)
    ideal._basis = GroebnerBasis(tuple(elements), leading, 0, 0, 0, 0)
    return ideal


class LeftIdeal:
    """Left ideal with a lazily computed reduced Groebner basis."""

    def __init__(self, generators: Sequence[SparseElement]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("an ideal needs at least one generator (use 0 for the zero ideal)")
        self._kind = type(gens[0])
        self._ambient = gens[0].ambient
        _same_ring(gens, self._kind, self._ambient, "generators")
        self._generators = gens
        self._basis: GroebnerBasis | None = None

    @property
    def generators(self) -> tuple[SparseElement, ...]:
        return self._generators

    @property
    def ambient(self) -> int:
        return self._ambient

    def groebner_basis(self) -> GroebnerBasis:
        if self._basis is None:
            self._basis = buchberger(self._generators)
        return self._basis

    def reduce(self, element: SparseElement, track: bool = False):
        """Left division of ``element``, of this ideal's ring, by the basis;
        returns as ``reduce_element``.  Each step reuses the basis's step
        table, so a monomial any earlier call divided costs no new product."""
        _same_ring((element,), self._kind, self._ambient, "division")
        basis = self.groebner_basis()
        return _divide(
            dict(element._terms), element._make, basis.elements, basis.leading, track, basis._steps
        )

    def contains(self, element: SparseElement) -> bool:
        return self.reduce(element).is_zero()

    def is_unit(self) -> bool:
        return any(lm.is_unit() for lm in self.groebner_basis().leading.monomials)

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self._generators)
        return f"LeftIdeal[{gens}]"
