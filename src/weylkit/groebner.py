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

Reads divide on ``Monomial`` tuples.  They find the divisor through a
per-slot index of the basis leading monomials: one bisection per slot and an
OR of bitmasks, whatever the basis size.  A reduced basis carries the index
built with it, so an ideal's divisions never rebuild it; ``reduce_element``
builds one per call.  A reduced basis also keeps a step table, filled as
``LeftIdeal.reduce`` divides: for each monomial it has met, either
"irreducible" or the divisor, the quotient and the terms of quotient *
divisor with their heap keys.  A later read that meets the monomial again
skips the divisor search, the product and the keys; the arithmetic is
unchanged, so are the results.  ``reduce_element`` fills a fresh table.

Buchberger runs on packed exponent vectors from end to end: every term of
every generator is packed once into one int with a field per slot whose top
bit is a guard bit.  The pair update, the S-pairs, the divisions and the
interreduction then work on those ints: divisibility, lcm, coprimality and
the degrevlex key take a few integer operations, a product of commuting
terms is a sum, and the ring's ``_packed_left_terms`` reorders the others.
Monomials are built once, for the reduced basis.  The field width follows
the run's own degrees: when a leading monomial of higher degree arrives, the
run repacks what it holds with wider fields, so a 10**9 exponent takes the
same path.

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
from itertools import compress
from operator import getitem, or_
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

    For each slot the index keeps the sorted distinct nonzero exponents the
    leading monomials have there, and a parallel list of bitmasks one longer:
    entry k has bit i set when leading monomial i has at least the k-th of
    those exponents there, and the last entry is 0.  So ``bisect_right`` on
    a monomial's exponent in a slot picks the mask of the leading monomials
    whose exponent there exceeds it.  A leading monomial divides iff no slot
    picks it: ``_all`` minus the OR of the picked masks holds exactly the
    divisors, and its lowest set bit is the first of them in list order.
    Zero exponents leave a slot untouched, so ``add`` works on its
    monomial's support only, and the index grows with the supports of the
    leading monomials, never with an exponent's size.  A leading coefficient
    of 1 is recorded as None, so division by a monic element skips the
    scalar division.
    """

    __slots__ = ("monomials", "coefficients", "_exps", "_over", "_all", "_positions")

    def __init__(self, slots: int):
        self.monomials: list[Monomial] = []
        self.coefficients: list[Scalar | None] = []
        self._exps: list[list[int]] = [[] for _ in range(slots)]
        self._over = [[0] for _ in range(slots)]
        self._all = 0
        self._positions = tuple(range(slots))

    def add(self, lm: Monomial, lc: Scalar) -> None:
        bit = 1 << len(self.monomials)
        self.monomials.append(lm)
        self.coefficients.append(None if lc == 1 else lc)
        slots = lm.zexp + lm.dexp
        for s in compress(self._positions, slots):
            e = slots[s]
            exps = self._exps[s]
            over = self._over[s]
            k = bisect_left(exps, e)
            if k == len(exps) or exps[k] != e:
                # A new exponent starts with the mask of the next larger one.
                exps.insert(k, e)
                over.insert(k, over[k])
            for j in range(k + 1):
                over[j] |= bit
        self._all |= bit

    def first_divisor(self, mono: Monomial) -> int:
        """Index of the first leading monomial dividing ``mono``, else -1."""
        above = reduce(
            or_,
            map(getitem, self._over, map(bisect_right, self._exps, mono.zexp + mono.dexp)),
            0,
        )
        bits = self._all & ~above
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
    indexed afresh on every call, with a fresh step table;
    ``LeftIdeal.reduce`` reuses its basis's index and step table.
    """
    _same_ring(basis, type(element), element.ambient, "division")
    leading = _LeadingTerms(2 * element.ambient)
    for g in basis:
        if g.is_zero():
            raise ValueError("zero divisor in basis")
        leading.add(g.leading_monomial(), g.leading_coefficient())
    return _divide(dict(element._terms), element._make, basis, leading, track, {})


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
    steps: dict,
):
    """``reduce_element`` on a checked basis, given its indexed leading terms
    and its step table.

    The dividend is ``work``, a dict of terms that the division consumes;
    ``make``, the ``_make`` of any element of the ring, wraps the results.
    The live terms stay in ``work`` and their monomials sit in a heap that
    pops the largest first (Monagan-Pearce style).  Every term a step adds
    lies strictly below that step's leading monomial, so a heap entry whose
    term has already cancelled or moved to the remainder is simply skipped; a
    term that cancels and then reappears is pushed again.

    ``steps`` maps each monomial this basis has divided to ``_IRREDUCIBLE``
    or to its divisor index, quotient, divisor leading coefficient and the
    terms of quotient * basis[i] with their heap entries.  The leading term
    is left out, as it cancels the popped term exactly.  A monomial met for
    the first time gets its divisor from the bitmask index of ``leading``
    (Bachmann-Schoenemann style), not a scan of the basis, and its entry is
    filled then; a step found there skips the divisor search, the quotient,
    the product and the heap keys.  A monic divisor needs no scalar
    division.  The cofactors are collected only when ``track`` is set.
    """
    heap_key = DEFAULT_ORDER.heap_key
    first_divisor = leading.first_divisor
    monomials = leading.monomials
    coefficients = leading.coefficients
    heap = [(heap_key(mono), mono) for mono in work]
    heapq.heapify(heap)
    remainder: dict[Monomial, Scalar] = {}
    cofactors = [{} for _ in basis] if track else None
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.get(mono)
        if coeff is None:
            continue
        step = steps.get(mono)
        if step is None:
            i = first_divisor(mono)
            if i < 0:
                step = _IRREDUCIBLE
            else:
                quotient = mono.quotient(monomials[i])
                step = (i, quotient, coefficients[i], [
                    (term, c, (heap_key(term), term))
                    for term, c in basis[i]._left_terms(quotient, 1)
                    if term != mono
                ])
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
        if track:
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
    them and every partial sum of an lcm's fields stays below it too; so does
    every monomial of at most twice that degree.  Then, with G the guard
    bits,

    * ``((b | G) - a) & G`` has the guard bit of each field where a <= b set,
      as no field borrows from its neighbour: a divides b iff it equals G;
    * the same guard bits, spread over their fields, select the lcm;
    * a and b are coprime iff lcm(a, b) == a + b, as a slot sum stays
      below the guard bit of its field;
    * ``((a | G) - ones) & G``, with ``ones`` one 1 per field, has the guard
      bit of each nonzero field set;
    * the total degree is the top field of ``a * ones``, and ``key`` puts it
      above the complemented fields, the last slot on top: degree reverse
      lexicographic, as ``DEFAULT_ORDER``.

    Buchberger keys its terms by the entry ``a - (degree << bits)``: entries
    sort opposite to the term order, so a min-heap of them pops the largest
    term first, and ``entry & mask`` gives a back.  The guard-bit tests read
    an entry as its packed monomial, since they look at the low ``bits`` only
    and a subtraction there borrows nothing from above.  Entries add as
    monomials multiply, degree included.

    A monomial of higher degree needs a new, wider packing.
    """

    __slots__ = (
        "slots", "width", "limit", "guard", "ones", "field", "top", "bits", "mask", "half"
    )

    def __init__(self, slots: int, degree: int):
        width = (2 * degree).bit_length() + 1
        self.slots = slots
        self.width = width
        self.limit = 1 << (width - 1)
        self.ones = sum(1 << (s * width) for s in range(slots))
        self.guard = self.ones << (width - 1)
        self.field = (1 << width) - 1
        self.top = (slots - 1) * width
        self.bits = slots * width
        self.mask = (1 << self.bits) - 1
        # The companion block starts here, half-way up.
        self.half = slots // 2 * width

    def pack(self, exponents: Sequence[int]) -> int:
        width = self.width
        return sum(e << (s * width) for s, e in enumerate(exponents) if e)

    def entry(self, exponents: Sequence[int]) -> int:
        return self.pack(exponents) - (sum(exponents) << self.bits)

    def support(self, packed: int) -> int:
        """The guard bits of the nonzero fields of a packed monomial or entry."""
        return ((packed | self.guard) - self.ones) & self.guard

    def exponents(self, packed: int) -> list[int]:
        """The slot exponents of a packed monomial or entry."""
        width = self.width
        out = [0] * self.slots
        nonzero = self.support(packed)
        while nonzero:
            bit = nonzero & -nonzero
            nonzero ^= bit
            start = bit.bit_length() - width
            out[start // width] = (packed >> start) & self.field
        return out

    def lcm(self, a: int, b: int) -> int:
        ge = ((a | self.guard) - b) & self.guard
        return b ^ ((a ^ b) & (ge - (ge >> (self.width - 1))))

    def key(self, packed: int) -> int:
        """Sorts like ``DEFAULT_ORDER.key`` of the monomial; minus its entry."""
        degree = (packed * self.ones >> self.top) & self.field
        return (degree << self.bits) - packed


def _packed(px: _PackedExponents, element: SparseElement) -> tuple[dict[int, Scalar], int]:
    """The terms of ``element`` keyed by their entries, and the entry of its
    leading monomial."""
    lm = element.leading_monomial()
    return (
        {px.entry(mono.slots()): c for mono, c in element._terms.items()},
        px.entry(lm.slots()),
    )


class _PackedBasis:
    """Monic elements of one ring on packed exponents, in list order.

    Element i is the list ``terms[i]`` of triples (entry, coefficient,
    support), with ``leads[i]`` the entry of its leading monomial and
    ``packed[i]`` that monomial packed.  ``left_terms`` is the ring's
    ``_packed_left_terms``, the product kernel on entries.
    """

    __slots__ = ("px", "left_terms", "terms", "leads", "packed")

    def __init__(self, px: _PackedExponents, left_terms: Callable):
        self.px = px
        self.left_terms = left_terms
        self.terms: list[list[tuple[int, Scalar, int]]] = []
        self.leads: list[int] = []
        self.packed: list[int] = []

    def append(self, work: dict[int, Scalar], lead: int) -> None:
        """Append the monic multiple of the element with terms ``work`` and
        leading entry ``lead``."""
        support = self.px.support
        inverse = _exact_quotient(1, work[lead])
        terms = []
        for e, c in work.items():
            c *= inverse
            terms.append((e, c.numerator if c.denominator == 1 else c, support(e)))
        self.terms.append(terms)
        self.leads.append(lead)
        self.packed.append(lead & self.px.mask)

    def repack(self, px: _PackedExponents) -> None:
        """Move every element to the packing ``px``."""
        old, self.px = self.px, px
        support = px.support
        for terms in self.terms:
            for k, (e, c, _) in enumerate(terms):
                e = px.entry(old.exponents(e))
                terms[k] = (e, c, support(e))
        self.leads[:] = (px.entry(old.exponents(e)) for e in self.leads)
        self.packed[:] = (e & px.mask for e in self.leads)

    def first_divisor(self, entry: int) -> int:
        """Index of the first leading monomial dividing ``entry``'s, else -1."""
        guard = self.px.guard
        guarded = entry | guard
        for i, p in enumerate(self.packed):
            if (guarded - p) & guard == guard:
                return i
        return -1

    def divide(self, work: dict[int, Scalar]) -> dict[int, Scalar]:
        """Remainder of the terms ``work`` under left division; consumes them.

        As ``_divide``: a min-heap of entries pops the largest live term, the
        first element in list order whose leading monomial divides it wins,
        and each step streams the divisor's product into ``work``.  The
        remainder's terms are added in descending order, its leading one
        first.
        """
        px = self.px
        first_divisor = self.first_divisor
        left_terms = self.left_terms
        leads = self.leads
        terms = self.terms
        heap = list(work)
        heapq.heapify(heap)
        remainder: dict[int, Scalar] = {}
        while heap:
            e = heapq.heappop(heap)
            coeff = work.get(e)
            if coeff is None:
                continue
            i = first_divisor(e)
            if i < 0:
                remainder[e] = work.pop(e)
                continue
            # The divisor is monic: the step's top term cancels ``e`` exactly.
            for term, c in left_terms(px, e - leads[i], coeff, terms[i]):
                acc = work.get(term)
                if acc is None:
                    work[term] = -c
                    heapq.heappush(heap, term)
                elif acc == c:
                    del work[term]
                else:
                    work[term] = acc - c
        return remainder

    def elements(self, make: Callable) -> tuple[list[SparseElement], _LeadingTerms]:
        """The elements as ``make`` builds them, with the index of their
        leading terms."""
        px = self.px
        m = px.slots // 2
        out: list[SparseElement] = []
        leading = _LeadingTerms(px.slots)
        for terms, lead in zip(self.terms, self.leads):
            clean: dict[Monomial, Scalar] = {}
            for e, c, _ in terms:
                exps = px.exponents(e)
                mono = Monomial(tuple(exps[:m]), tuple(exps[m:]))
                clean[mono] = c
                if e == lead:
                    lm = mono
            out.append(make(clean, lm))
            leading.add(lm, 1)
        return out, leading


def _variable_support(terms: list[tuple[int, Scalar, int]], half: int) -> int:
    """A bitmask that meets another element's iff the two elements share a
    variable: the supports of the terms, the companion block folded onto
    the position block."""
    bits = 0
    for _, _, support in terms:
        bits |= support
    return bits | bits >> half


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

    The whole run works on ``_PackedExponents``: each generator is packed
    once into a ``_PackedBasis``, and the pair update, the S-pairs, the
    divisions and the interreduction hold entries and packed monomials only.
    Monomials are built once, for the reduced basis.  Degrevlex refines
    degree and a division step adds only smaller terms, so no term of a
    reduction is of higher degree than its pair's lcm, which the fields hold.
    Each basis element also keeps a bitmask of the variables it involves (0
    for ``Poly``), so the product criterion is two integer tests: lcm(i, h)
    is the sum of the packed monomials, and the variable masks are disjoint.
    The fields start wide enough for twice the generators' largest degree.
    A leading monomial of higher degree widens them: the basis, the incoming
    element and the pending lcms are repacked, and the queue is rebuilt from
    the pending pairs, whose pop order does not change.
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
    basis = _PackedBasis(px, kind._packed_left_terms)
    leads = basis.leads
    terms = basis.terms
    packed = basis.packed
    left_terms = basis.left_terms
    # Per basis element: the variables it involves.
    supports: list[int] = []
    # Indices whose leading monomial no later one divides: only these get new pairs.
    active: list[int] = []
    pending: dict[tuple[int, int], int] = {}
    queue: list[tuple[int, int, int]] = []
    chain = commuting = 0

    def insert(work: dict[int, Scalar], lead: int) -> None:
        nonlocal px, active, chain, commuting
        degree = -(lead >> px.bits)
        if 2 * degree >= px.limit:
            # Widen: repack the basis, this element and the pending lcms,
            # and rebuild the queue from the pending pairs (stale entries drop).
            old, px = px, _PackedExponents(slots, degree)
            basis.repack(px)
            work = {px.entry(old.exponents(e)): c for e, c in work.items()}
            lead = px.entry(old.exponents(lead))
            if not commutative:
                supports[:] = (_variable_support(t, px.half) for t in terms)
            for i, k in pending:
                pending[i, k] = px.lcm(packed[i], packed[k])
            queue[:] = [(px.key(lcm), i, k) for (i, k), lcm in pending.items()]
            heapq.heapify(queue)
        guard = px.guard
        lcm_of = px.lcm
        j = len(leads)
        basis.append(work, lead)
        p_h = packed[j]
        s_h = 0 if commutative else _variable_support(terms[j], px.half)
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
        supports.append(s_h)

    for g in gens:
        insert(*_packed(px, g))

    processed = 0
    zero_reductions = 0
    while queue:
        key, i, j = heapq.heappop(queue)
        if pending.pop((i, j), None) is None:
            continue
        processed += 1
        if limit is not None and processed > limit:
            raise PairLimitExceeded(
                f"Groebner pair budget of {limit} exhausted "
                f"(set {PAIR_LIMIT_ENV} to raise it)"
            )
        # The queue key of a pair is minus the entry of its lcm.
        work: dict[int, Scalar] = {}
        _accumulate(work, left_terms(px, -key - leads[i], 1, terms[i]))
        _accumulate(work, left_terms(px, -key - leads[j], -1, terms[j]))
        remainder = basis.divide(work)
        if remainder:
            insert(remainder, next(iter(remainder)))
        else:
            zero_reductions += 1

    reduced, reduced_leading = _interreduce(basis).elements(gens[0]._make)
    return GroebnerBasis(
        tuple(reduced), reduced_leading, processed, zero_reductions, chain, commuting
    )


def _interreduce(basis: _PackedBasis) -> _PackedBasis:
    """Reduced basis from a nonempty Groebner basis, in one ascending pass.

    Every tail term of an element lies below its leading monomial, so only
    smaller leading monomials can divide it: each minimal element is divided
    by the smaller, already reduced ones and then joins them.
    """
    reduced = _PackedBasis(basis.px, basis.left_terms)
    leads = basis.leads
    # Descending entries are ascending monomials; equal ones keep list order.
    for i in sorted(range(len(leads)), key=leads.__getitem__, reverse=True):
        lead = leads[i]
        # Minimal first: drop anything whose leading monomial another one divides.
        if reduced.first_divisor(lead) >= 0:
            continue
        remainder = reduced.divide({e: c for e, c, _ in basis.terms[i]})
        if next(iter(remainder), None) != lead:
            raise AssertionError("minimal basis element lost its leading term")
        reduced.append(remainder, lead)
    return reduced


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
