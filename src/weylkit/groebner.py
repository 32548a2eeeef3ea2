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

All division runs on packed exponent vectors, in one loop
(``_PackedBasis.divide``): every monomial is one int with a field per slot
whose top bit is a guard bit.  Divisibility, lcm, coprimality and the
degrevlex key take a few integer operations, a product of commuting terms
is a sum, and the ring's ``_packed_left_terms`` reorders the others.  The
divisor is the first leading monomial in list order that divides, found by
a guard-bit scan.  The loop fills a step table keyed by entry: for each
monomial it has divided, the divisor and the terms of the product, or the
number of elements it was found irreducible by.  A monomial met again costs
no scan and no product; the arithmetic is unchanged, so are the results.

Buchberger packs every term of every generator once, and the pair update,
the S-pairs, the divisions and the interreduction work on those ints.  The
field width follows the run's own degrees: when a leading monomial of higher
degree arrives, the run repacks what it holds with wider fields, so a 10**9
exponent takes the same path.  A run's terms seldom recur, so each of its
divisions gets a fresh step table: on the 303-element basis of
(z1*d1 + z2*d2 + 1, d3, d1^300), one table kept for the whole run found
almost no entry again and raised the run's peak memory from 54 to 88 MB.

A reduced basis keeps the packed basis that the interreduction built, and
one step table that its reads share.  A read (``LeftIdeal.reduce``) packs
the dividend, divides there and unpacks the remainder, each through a
per-basis cache of the monomials it has met; ``reduce_element`` packs a
fresh basis per call.

Chain criterion in G-algebras: V. Levandovskyy, PhD thesis, Kaiserslautern 2005.
Pair update: R. Gebauer and H. M. Moeller, J. Symbolic Comput. 6 (1988).
Packed exponents and heap division: M. Monagan and R. Pearce, CASC 2007.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from operator import lshift
from typing import Callable, Sequence

from .base import Scalar, SparseElement, _accumulate, _exact_quotient
from .monomial import Monomial
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


def reduce_element(element: SparseElement, basis: Sequence[SparseElement]) -> SparseElement:
    """Normal form of ``element`` under left division by ``basis``.

    Terms are processed from the top down; the first basis element whose
    leading monomial divides wins.  Each call packs the monic multiples of
    ``basis`` afresh, with an empty step table, and divides by them.
    ``LeftIdeal.reduce`` reuses its basis's packing and step table.
    """
    _same_ring(basis, type(element), element.ambient, "division")
    if any(g.is_zero() for g in basis):
        raise ValueError("zero divisor in basis")
    degree = max(
        [m.total_degree() for m in element._terms] + [g.total_degree() for g in basis], default=0
    )
    packed = _PackedBasis(
        _PackedExponents(2 * element.ambient, degree), type(element)._packed_left_terms
    )
    for g in basis:
        packed.append(*_packed(packed.px, g))
    return packed.read(element)


def _same_ring(elements: Sequence[SparseElement], kind: type, ambient: int, what: str) -> None:
    """Raise unless every element is a ``kind`` over ``ambient`` variables."""
    for g in elements:
        if type(g) is not kind:
            raise TypeError(f"mixed element types in {what}")
        if g.ambient != ambient:
            raise ValueError(f"ambient mismatch in {what}")


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

    Division keys its terms by the entry ``a - (degree << bits)``: entries
    sort opposite to the term order, so a min-heap of them pops the largest
    term first, and ``entry & mask`` gives a back.  The guard-bit tests read
    an entry as its packed monomial, since they look at the low ``bits`` only
    and a subtraction there borrows nothing from above.  Entries add as
    monomials multiply, degree included.

    A monomial of higher degree needs a new, wider packing.
    """

    __slots__ = (
        "slots", "width", "limit", "guard", "ones", "field", "top", "bits", "mask", "half",
        "shifts",
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
        self.shifts = range(0, self.bits, width)

    def pack(self, exponents: Sequence[int]) -> int:
        return sum(map(lshift, exponents, self.shifts))

    def entry(self, exponents: Sequence[int]) -> int:
        return sum(map(lshift, exponents, self.shifts)) - (sum(exponents) << self.bits)

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
    ``_packed_left_terms``, the product kernel on entries.  Elements are
    only ever appended.

    Three tables serve repeated reads: ``steps``, the step table that
    ``read`` passes to ``divide``, and ``entries`` and ``monomials``, which
    map the monomials a read has met to their entries and back.  They hold
    for the current packing only, so ``repack`` drops them.
    """

    __slots__ = ("px", "left_terms", "terms", "leads", "packed", "steps", "entries", "monomials")

    def __init__(self, px: _PackedExponents, left_terms: Callable):
        self.px = px
        self.left_terms = left_terms
        self.terms: list[list[tuple[int, Scalar, int]]] = []
        self.leads: list[int] = []
        self.packed: list[int] = []
        self.steps: dict[int, int | tuple[int, list[tuple[int, Scalar]]]] = {}
        self.entries: dict[Monomial, int] = {}
        self.monomials: dict[int, Monomial] = {}

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
        """Move every element to the packing ``px``; the tables start empty."""
        old, self.px = self.px, px
        support = px.support
        for terms in self.terms:
            for k, (e, c, _) in enumerate(terms):
                e = px.entry(old.exponents(e))
                terms[k] = (e, c, support(e))
        self.leads[:] = (px.entry(old.exponents(e)) for e in self.leads)
        self.packed[:] = (e & px.mask for e in self.leads)
        self.steps = {}
        self.entries = {}
        self.monomials = {}

    def symbols(self) -> _PackedBasis:
        """The principal symbols of these operators on the same packing: the
        terms of each element at its leading degree, in the symbol ring."""
        out = _PackedBasis(self.px, Poly._packed_left_terms)
        bits = self.px.bits
        for terms, lead in zip(self.terms, self.leads):
            top = lead >> bits  # minus the degree
            out.terms.append([t for t in terms if t[0] >> bits == top])
        out.leads[:] = self.leads
        out.packed[:] = self.packed
        return out

    def first_divisor(self, entry: int, start: int = 0) -> int:
        """Index of the first leading monomial from ``start`` on dividing
        ``entry``'s, else -1."""
        guard = self.px.guard
        guarded = entry | guard
        for i, p in enumerate(self.packed[start:] if start else self.packed, start):
            if (guarded - p) & guard == guard:
                return i
        return -1

    def divide(self, work: dict[int, Scalar], steps: dict) -> dict[int, Scalar]:
        """Remainder of the terms ``work`` under left division; consumes them.

        A min-heap of entries pops the largest live term (Monagan-Pearce
        style).  The first element in list order whose leading monomial
        divides it wins, and the step streams that element's multiple into
        ``work``.  Every term a step adds lies strictly below the popped
        one, so a heap entry whose term has cancelled or moved to the
        remainder is skipped, and a term that cancels and reappears is
        pushed again.  The remainder's terms are added in descending order,
        its leading one first.

        ``steps``, the step table, maps each entry e it has met either to
        the number of elements e was found irreducible by, or to its divisor
        i and the terms of -(e - lead_i) * g_i, the top term left out as it
        cancels e exactly.  Elements are only appended, so a count below
        ``len(leads)`` resumes the list-order scan there, and a stored
        divisor stays the first.  A known step costs no scan and no product.
        """
        held = len(self.leads)
        pop = heapq.heappop
        push = heapq.heappush
        heap = list(work)
        heapq.heapify(heap)
        remainder: dict[int, Scalar] = {}
        while heap:
            e = pop(heap)
            coeff = work.get(e)
            if coeff is None:
                continue
            step = steps.get(e, 0)
            if type(step) is int:
                i = self.first_divisor(e, step) if step < held else -1
                if i < 0:
                    steps[e] = held
                    remainder[e] = work.pop(e)
                    continue
                product = self.left_terms(self.px, e - self.leads[i], -1, self.terms[i])
                step = steps[e] = (i, [(t, c) for t, c in product if t != e])
            _, product = step
            del work[e]
            for term, c in product:
                c *= coeff
                acc = work.get(term)
                if acc is None:
                    work[term] = c
                    push(heap, term)
                else:
                    acc += c
                    if acc:
                        work[term] = acc
                    else:
                        del work[term]
        return remainder

    def unpack(self, entry: int) -> Monomial:
        """The monomial of ``entry``, built afresh."""
        exps = self.px.exponents(entry)
        m = self.px.slots // 2
        return Monomial(tuple(exps[:m]), tuple(exps[m:]))

    def monomial(self, entry: int) -> Monomial:
        """The monomial of ``entry``, through ``monomials``."""
        mono = self.monomials.get(entry)
        if mono is None:
            mono = self.monomials[entry] = self.unpack(entry)
            self.entries[mono] = entry
        return mono

    def _unpacked(self, terms: dict[int, Scalar]) -> dict[Monomial, Scalar]:
        get = self.monomials.get
        monomial = self.monomial
        return {get(e) or monomial(e): c for e, c in terms.items()}

    def read(self, element: SparseElement) -> SparseElement:
        """Normal form of ``element``, of this basis's ring, under left
        division.

        The dividend is packed through ``entries``; a monomial of degree at
        or above the field limit first repacks the basis for the dividend's
        degree.  The remainder is unpacked through ``monomials``.
        """
        get = self.entries.get
        work: dict[int, Scalar] = {}
        for mono, c in element._terms.items():
            e = get(mono)
            if e is None:
                px = self.px
                slots = mono.zexp + mono.dexp
                degree = sum(slots)
                if degree >= px.limit:
                    top = max(m.total_degree() for m in element._terms)
                    self.repack(_PackedExponents(px.slots, top))
                    return self.read(element)
                e = self.entries[mono] = px.pack(slots) - (degree << px.bits)
                self.monomials[e] = mono
            work[e] = c
        return element._make(self._unpacked(self.divide(work, self.steps)))

    def elements(self, make: Callable) -> list[SparseElement]:
        """The elements as ``make`` builds them.  The read caches stay
        empty: a read fills them with the monomials it meets only."""
        unpack = self.unpack
        return [
            make({unpack(e): c for e, c, _ in terms}, unpack(lead))
            for terms, lead in zip(self.terms, self.leads)
        ]


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

    ``packed`` holds the same elements on packed exponents, None for the
    zero ideal.  Every read divides there, and its step table and monomial
    caches (see ``_PackedBasis``) live as long as the basis.  The counters
    describe the Buchberger run that built it: S-pairs reduced, how many of
    those reduced to zero, and pairs skipped by the chain and by the product
    (commuting generators) criterion.
    """

    elements: tuple[SparseElement, ...]
    packed: _PackedBasis | None = field(repr=False, compare=False)
    pairs_processed: int
    reductions_to_zero: int
    pairs_skipped_chain: int
    pairs_skipped_commuting: int

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial() for g in self.elements)


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
    Each basis element also keeps the support of its leading monomial (the
    guard bits of its nonzero fields) and a bitmask of the variables it
    involves (0 for ``Poly``), so the product criterion is two integer
    tests: the leading supports are disjoint, when lcm(i, h) is the sum of
    the packed monomials and no ``lcm`` is taken, and so are the variable
    masks.  Each division gets a fresh step table.
    The fields start wide enough for twice the generators' largest degree.
    A leading monomial of higher degree widens them: the basis, the incoming
    element and the pending lcms are repacked, and the queue is rebuilt from
    the pending pairs, whose pop order does not change.
    """
    limit = _pair_limit()
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return GroebnerBasis((), None, 0, 0, 0, 0)
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
    # Per basis element: the support of its leading monomial, and the
    # variables it involves.
    lead_supports: list[int] = []
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
            lead_supports[:] = map(px.support, packed)
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
        lead_h = px.support(p_h)
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
            if lead_supports[i] & lead_h:
                lcm = lcm_of(packed[i], p_h)
            else:
                lcm = packed[i] + p_h
                if not supports[i] & s_h:
                    commuting += 1
                    minimal.append(lcm)
                    continue
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
        lead_supports.append(lead_h)
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
        remainder = basis.divide(work, {})
        if remainder:
            insert(remainder, next(iter(remainder)))
        else:
            zero_reductions += 1

    reduced = _interreduce(basis)
    elements = tuple(reduced.elements(gens[0]._make))
    return GroebnerBasis(elements, reduced, processed, zero_reductions, chain, commuting)


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
        # The scan above is recorded, so the division does not repeat it.
        steps = {lead: len(reduced.leads)}
        remainder = reduced.divide({e: c for e, c, _ in basis.terms[i]}, steps)
        if next(iter(remainder), None) != lead:
            raise AssertionError("minimal basis element lost its leading term")
        reduced.append(remainder, lead)
    return reduced


def _ideal_from_reduced_basis(
    elements: Sequence[SparseElement], packed: _PackedBasis
) -> "LeftIdeal":
    """Left ideal whose generators already are its reduced Groebner basis,
    with ``packed`` the same elements on packed exponents.

    No Buchberger run builds the basis, so its pair counters are all 0.
    """
    ideal = LeftIdeal(elements)
    ideal._basis = GroebnerBasis(tuple(elements), packed, 0, 0, 0, 0)
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

    def reduce(self, element: SparseElement) -> SparseElement:
        """Normal form of ``element``, of this ideal's ring, under left
        division by the basis.  It divides on the basis's packing and step
        table, so a monomial any earlier call divided costs no new product."""
        if type(element) is not self._kind or element._ambient != self._ambient:
            _same_ring((element,), self._kind, self._ambient, "division")
        packed = (self._basis or self.groebner_basis()).packed
        if packed is None:
            return element
        return packed.read(element)

    def contains(self, element: SparseElement) -> bool:
        return self.reduce(element).is_zero()

    def is_unit(self) -> bool:
        return any(lm.is_unit() for lm in self.groebner_basis().leading_monomials())

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self._generators)
        return f"LeftIdeal[{gens}]"
