"""Independent oracles and randomized property batches shared by the tests.

The oracles deliberately avoid the engine's closed-form algorithms:

* normal ordering is recomputed by one-swap rewriting on generator words,
  and each ring's product method ``_left_terms`` is checked term by term
  against it (letter counts for the commuting symbols),
* Hilbert data is recomputed by brute-force counting of standard monomials
  and by the recursion on the largest generator; the latter's numerator,
  with its (1 - t) factors stripped, gives the dimension and multiplicity
  that the engine counts over its minimum slot covers,
* independent slot sets are recomputed by trying every subset of the slots,
* the action on polynomials is recomputed with a formal z-derivative and
  multiplication,
* left division is recomputed by the textbook loop that rescans for the
  leading term and rebuilds the element after every step; the package
  returns normal forms only, so the division identity x - NF(x) in I is
  asserted on this loop's own cofactors (``check_normal_form``),
* division is recomputed on ``Monomial`` tuples, with a list-order divisor
  scan and a heap key of its own, each step's product streamed from
  ``_left_terms``, where the package divides on packed exponents,
* a packed basis is decoded field by field and compared with what its
  elements' monomials say it must hold,
* S-polynomials are built as whole elements, which ``buchberger`` never
  does, so the final bases' S-pairs are re-checked by code it does not share,
* Groebner bases are recomputed by Buchberger's algorithm with no pair
  criterion, reducing every S-pair, and interreduced by tail-reducing every
  element against all others until nothing moves,
* the Gebauer-Moeller pair update is recomputed on ``Monomial`` tuples: lcm,
  divisibility and the term order key per pair, and the product criterion
  from coprime leading monomials and disjoint variable supports,
* the Lie layer is recomputed densely: flattened matrices, span tests by
  comparing ``rank``, coordinates by ``solve`` and brackets by ``mat_mul``.

Property batches live here so the unit suites and the acceptance suite run
the exact same assertions from the same documented seeds.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from itertools import accumulate, combinations

from weylkit import (
    DEFAULT_ORDER,
    DeltaModule,
    GroebnerBasis,
    ImproperIdealError,
    LeftIdeal,
    Monomial,
    Poly,
    WeylElement,
    act,
    act_on_polynomial,
    delta,
    krull_dimension,
    multiplicity,
    partial_fourier,
    reduce_element,
    section_from_operator,
)
from weylkit.base import _accumulate, _exact_quotient
from weylkit.groebner import _interreduce, _packed, _PackedBasis, _PackedExponents
from weylkit.linalg import mat_mul, rank, solve
from weylkit.weyl import d as d_op, z as z_op

Letter = tuple[str, int]


# -- One-swap rewriting oracle for normal ordering ----------------------------

def oracle_normal_form(word: tuple[Letter, ...], ambient: int) -> dict[Monomial, Fraction]:
    """Normal order a generator word by repeated single swaps.

    A word is a tuple of ('z', i) / ('d', i) letters (1-based indices).  The
    only rewriting rules are the ring axioms themselves: letters with
    different indices commute, and d_i z_i = z_i d_i + 1.  The result maps
    normally ordered monomials to integer coefficients.
    """
    out: dict[Monomial, Fraction] = {}
    stack: list[tuple[tuple[Letter, ...], Fraction]] = [(word, Fraction(1))]
    while stack:
        current, coeff = stack.pop()
        swap = _first_disorder(current)
        if swap is None:
            mono = _word_monomial(current, ambient)
            total = out.get(mono, Fraction(0)) + coeff
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
            continue
        k = swap
        (kind_a, i), (kind_b, j) = current[k], current[k + 1]
        swapped = current[:k] + ((kind_b, j), (kind_a, i)) + current[k + 2 :]
        stack.append((swapped, coeff))
        if kind_a == "d" and kind_b == "z" and i == j:
            stack.append((current[:k] + current[k + 2 :], coeff))
    return out


def _first_disorder(word: tuple[Letter, ...]) -> int | None:
    for k in range(len(word) - 1):
        (kind_a, i), (kind_b, j) = word[k], word[k + 1]
        if kind_a == "d" and kind_b == "z":
            return k
        if kind_a == kind_b and i > j:
            return k
    return None


def _word_monomial(word: tuple[Letter, ...], ambient: int) -> Monomial:
    zexp = [0] * ambient
    dexp = [0] * ambient
    for kind, index in word:
        (zexp if kind == "z" else dexp)[index - 1] += 1
    return Monomial(tuple(zexp), tuple(dexp))


def word_element(word: tuple[Letter, ...], ambient: int) -> WeylElement:
    out = WeylElement.one(ambient)
    for kind, index in word:
        factor = z_op(index, ambient) if kind == "z" else d_op(index, ambient)
        out = out * factor
    return out


def monomial_word(mono: Monomial) -> tuple[Letter, ...]:
    """The normally ordered word of ``mono``: its z letters, then its d letters."""
    return tuple(
        (kind, i + 1)
        for kind, exps in (("z", mono.zexp), ("d", mono.dexp))
        for i, e in enumerate(exps)
        for _ in range(e)
    )


def oracle_left_product(mono: Monomial, coeff, element) -> dict[Monomial, Fraction]:
    """(coeff * mono) * element from words, term by term of ``element``:
    one-swap rewriting for operators, letter counts for the commuting
    symbols of a ``Poly``."""
    ambient = element.ambient
    left = monomial_word(mono)
    out: dict[Monomial, Fraction] = {}
    for m2, c2 in element.terms.items():
        word = left + monomial_word(m2)
        if isinstance(element, WeylElement):
            product = oracle_normal_form(word, ambient)
        else:
            product = {_word_monomial(word, ambient): 1}
        for m, c in product.items():
            out[m] = out.get(m, 0) + coeff * c2 * c
    return {m: c for m, c in out.items() if c}


def random_word(rng: random.Random, ambient: int, max_len: int) -> tuple[Letter, ...]:
    length = rng.randint(0, max_len)
    return tuple(
        (rng.choice("zd"), rng.randint(1, ambient)) for _ in range(length)
    )


def random_element(
    rng: random.Random,
    ambient: int,
    terms: int = 4,
    max_exp: int = 2,
    coeff_range: int = 5,
) -> WeylElement:
    out = WeylElement.zero(ambient)
    for _ in range(rng.randint(1, terms)):
        mono = Monomial(
            tuple(rng.randint(0, max_exp) for _ in range(ambient)),
            tuple(rng.randint(0, max_exp) for _ in range(ambient)),
        )
        coeff = rng.randint(-coeff_range, coeff_range) or 1
        out = out + WeylElement.from_monomial(mono, coeff)
    return out


# -- Brute-force Hilbert counting oracle --------------------------------------

def count_standard_monomials(
    leading: list[tuple[int, ...]], slots: int, degree: int
) -> int:
    """Number of degree-``degree`` monomials divisible by no leading monomial."""
    count = 0
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        used = sum(prefix)
        position = len(prefix)
        if position == slots - 1:
            candidate = prefix + (degree - used,)
            if not any(
                all(c >= lm for c, lm in zip(candidate, lead)) for lead in leading
            ):
                count += 1
            continue
        for e in range(degree - used + 1):
            stack.append(prefix + (e,))
    return count


def hilbert_by_counting(
    leading: list[tuple[int, ...]], slots: int, dmax: int
) -> list[int]:
    return [count_standard_monomials(leading, slots, d) for d in range(dmax + 1)]


def hilbert_numerator_by_largest_generator(gens: list[tuple[int, ...]]) -> list[int]:
    """Hilbert numerator by H(I) = H(rest) - t^deg(g) H(rest : g), where g is
    the largest of the interreduced generators (sorted by degree, then slots)."""

    def interreduce(gens):
        kept = []
        for g in sorted(set(gens), key=lambda g: (sum(g), g)):
            if not any(all(a <= b for a, b in zip(h, g)) for h in kept):
                kept.append(g)
        return kept

    def sub_shifted(a, b, shift):
        out = list(a) + [0] * max(0, shift + len(b) - len(a))
        for i, c in enumerate(b):
            out[shift + i] -= c
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def numerator(gens):
        key = interreduce(gens)
        if not key:
            return [1]
        if not any(key[0]):
            return [0]
        g, rest = key[-1], key[:-1]
        colon = [tuple(max(a - b, 0) for a, b in zip(h, g)) for h in rest]
        return sub_shifted(numerator(rest), numerator(colon), sum(g))

    return numerator(gens)


def dimension_and_multiplicity_by_numerator(
    leading: list[tuple[int, ...]], slots: int
) -> tuple[int, int] | None:
    """Pole order and value at 1 of the largest-generator numerator over
    (1 - t)^slots, once every (1 - t) factor is stripped; None for the unit
    ideal, whose numerator is 0."""
    numerator = hilbert_numerator_by_largest_generator(leading)
    if not any(numerator):
        return None
    while sum(numerator) == 0:
        # numerator = (1 - t) q with q_i = a_0 + ... + a_i; the last sum is 0.
        numerator = list(accumulate(numerator))[:-1]
        slots -= 1
    return slots, sum(numerator)


def monomial_ideal(leading: list[tuple[int, ...]], m: int) -> LeftIdeal:
    """Symbol ideal generated by the monomials with these 2m exponents."""
    gens = [Poly.from_monomial(Monomial(lm[:m], lm[m:])) for lm in leading]
    return LeftIdeal(gens or [Poly.zero(m)])


def assert_dimension_and_multiplicity(graded: LeftIdeal, expected: tuple[int, int] | None):
    """The engine's dimension and multiplicity, or ImproperIdealError from
    both when ``expected`` is None."""
    if expected is not None:
        assert (krull_dimension(graded), multiplicity(graded)) == expected
        return
    for measure in (krull_dimension, multiplicity):
        try:
            measure(graded)
        except ImproperIdealError:
            continue
        raise AssertionError(f"{measure.__name__} accepted a unit ideal")


def check_multiplicity_on_monomial_ideals(seed: str, rounds: int) -> int:
    """Dimension and multiplicity of random monomial ideals (ambient 1-3,
    1-7 generators on 1-3 slots, exponents up to 12) equal those of the
    largest-generator numerator; the unit ideal is refused."""
    rng = random.Random(seed)
    for _ in range(rounds):
        m = rng.randint(1, 3)
        leading = []
        for _ in range(rng.randint(1, 7)):
            exps = [0] * (2 * m)
            for slot in rng.sample(range(2 * m), rng.randint(1, min(3, 2 * m))):
                exps[slot] = rng.choice((1, 2, rng.randint(1, 12)))
            leading.append(tuple(exps))
        if rng.random() < 0.02:
            leading.append((0,) * (2 * m))
        expected = dimension_and_multiplicity_by_numerator(leading, 2 * m)
        try:
            assert_dimension_and_multiplicity(monomial_ideal(leading, m), expected)
        except AssertionError as exc:
            raise AssertionError(f"{leading}: {exc}") from exc
    return rounds


def independent_sets_by_enumeration(
    leading: list[tuple[int, ...]], slots: int
) -> tuple[int, list[frozenset[int]]]:
    """Largest slot subsets containing no leading support, by trying every
    subset from the largest size down; (-1, []) for the unit ideal."""
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in leading]
    if frozenset() in supports:
        return -1, []
    for size in range(slots, -1, -1):
        found = [
            frozenset(T)
            for T in combinations(range(slots), size)
            if not any(s <= frozenset(T) for s in supports)
        ]
        if found:
            return size, found
    return -1, []


def finite_difference(values: list[int], order: int) -> list[int]:
    out = list(values)
    for _ in range(order):
        out = [b - a for a, b in zip(out, out[1:])]
    return out


# -- Shared randomized property batches ----------------------------------------

def check_ring_axioms(seed: str, ambient: int = 3, rounds: int = 40) -> int:
    """Associativity, distributivity, and unit laws on random elements."""
    rng = random.Random(seed)
    for _ in range(rounds):
        a = random_element(rng, ambient)
        b = random_element(rng, ambient)
        c = random_element(rng, ambient)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        one = WeylElement.one(ambient)
        assert a * one == a and one * a == a
    return rounds


def check_word_products(seed: str, pairs: int, ambient: int = 3, max_len: int = 6) -> int:
    """Engine products of word pairs match the one-swap rewriting oracle."""
    rng = random.Random(seed)
    for _ in range(pairs):
        left = random_word(rng, ambient, max_len)
        right = random_word(rng, ambient, max_len)
        engine = word_element(left, ambient) * word_element(right, ambient)
        oracle = oracle_normal_form(left + right, ambient)
        assert dict(engine.terms) == oracle, (left, right)
    return pairs


def check_module_axioms(seed: str, ambient: int = 3, rounds: int = 30) -> int:
    """(PQ) s == P (Q s) and linearity of the delta-module action."""
    rng = random.Random(seed)
    module = DeltaModule(ambient, frozenset({2}))
    base = delta(module)
    for _ in range(rounds):
        p = random_element(rng, ambient, terms=3, max_exp=2)
        q = random_element(rng, ambient, terms=3, max_exp=2)
        section = section_from_operator(module, random_element(rng, ambient, terms=2))
        assert act(p * q, section) == act(p, act(q, section))
        assert act(p + q, section).data == act(p, section).data + act(q, section).data
        assert act(WeylElement.one(ambient), base) == base
    return rounds


def naive_reduce(element, basis):
    """Left division, textbook style: ``(normal_form, cofactors)``.

    Each step rescans the working element for its leading term and rebuilds
    it by subtraction; the first basis element whose leading monomial
    divides wins, as in ``reduce_element``.
    """
    kind = type(element)
    ambient = element.ambient
    work = element
    remainder = kind.zero(ambient)
    cofactors = [kind.zero(ambient) for _ in basis]
    while not work.is_zero():
        mono = max(work.terms, key=DEFAULT_ORDER.key)
        coeff = work.terms[mono]
        for i, g in enumerate(basis):
            lm = max(g.terms, key=DEFAULT_ORDER.key)
            if lm.divides(mono):
                piece = kind.from_monomial(mono.quotient(lm), Fraction(coeff) / g.terms[lm])
                work = work - piece * g
                cofactors[i] = cofactors[i] + piece
                break
        else:
            stray = kind.from_monomial(mono, coeff)
            remainder = remainder + stray
            work = work - stray
    return remainder, cofactors


def check_normal_form(remainder, element, basis) -> None:
    """``remainder`` is ``naive_reduce``'s normal form of ``element``, and
    element - remainder is the sum of the oracle's own cofactors times
    ``basis``: the division identity, checked by code the package's
    division does not share."""
    normal_form, cofactors = naive_reduce(element, basis)
    assert remainder == normal_form
    assert sum((q * g for q, g in zip(cofactors, basis)), normal_form) == element


def fixpoint_interreduce(basis):
    """Reduced basis: drop elements whose leading monomial an earlier one
    divides, then tail-reduce each element against all the others, sweep
    after sweep, until nothing moves."""
    def lead_key(g):
        return DEFAULT_ORDER.key(g.leading_monomial())

    minimal = []
    for g in sorted(basis, key=lead_key):
        lm = g.leading_monomial()
        if not any(h.leading_monomial().divides(lm) for h in minimal):
            minimal.append(g)
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = minimal[:i] + minimal[i + 1 :]
            if not others:
                continue
            replacement = reduce_element(minimal[i], others)
            assert not replacement.is_zero(), "minimal basis element reduced to zero"
            replacement = replacement.monic()
            if replacement != minimal[i]:
                minimal[i] = replacement
                changed = True
    return sorted(minimal, key=lead_key)


def s_polynomial(f, g):
    """u * f - v * g with the monomial multipliers u, v that cancel both
    leading terms at their lcm, built as one element; ``buchberger`` never
    builds it and reduces the two multiples straight from its work dict."""
    f._require_same(g)
    lm_f = f.leading_monomial()
    lm_g = g.leading_monomial()
    lcm = lm_f.lcm(lm_g)
    out = {}
    _accumulate(out, f._left_terms(lcm.quotient(lm_f), _exact_quotient(1, f.terms[lm_f])))
    _accumulate(out, g._left_terms(lcm.quotient(lm_g), _exact_quotient(-1, g.terms[lm_g])))
    return f._make(out)


def textbook_buchberger(generators) -> tuple:
    """Reduced left Groebner basis with no pair criterion.

    Every S-pair of every two basis elements is reduced, the pair with the
    smallest lcm first; a nonzero remainder joins the basis and pairs with
    all earlier elements.  The fixpoint loop interreduces the result.
    """
    basis = [g.monic() for g in generators if not g.is_zero()]
    pairs: list = []

    def add_pairs(j: int) -> None:
        lm = basis[j].leading_monomial()
        for i in range(j):
            lcm = basis[i].leading_monomial().lcm(lm)
            heapq.heappush(pairs, (DEFAULT_ORDER.key(lcm), i, j))

    for j in range(len(basis)):
        add_pairs(j)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        remainder = reduce_element(s_polynomial(basis[i], basis[j]), basis)
        if not remainder.is_zero():
            basis.append(remainder.monic())
            add_pairs(len(basis) - 1)
    return tuple(fixpoint_interreduce(basis)) if basis else ()


def _coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a.slots(), b.slots()))


def _index_support(element) -> frozenset[int]:
    return frozenset(
        i + 1
        for mono in element.terms
        for i, (a, b) in enumerate(zip(mono.zexp, mono.dexp))
        if a or b
    )


def reference_buchberger(generators) -> GroebnerBasis:
    """``buchberger`` on ``Monomial`` tuples.

    The same Gebauer-Moeller update, pair order and counters, but every lcm
    is a ``Monomial``, every test a tuple comparison and every queue key
    ``DEFAULT_ORDER.key``; each S-polynomial is built whole and divided by
    ``streaming_divide``, and the fixpoint loop interreduces the result.
    Returns the reduced basis and all four counters.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return GroebnerBasis((), None, 0, 0, 0, 0)
    order_key = DEFAULT_ORDER.key
    basis = []
    lms: list[Monomial] = []
    active: list[int] = []
    pending: dict[tuple[int, int], Monomial] = {}
    queue: list = []
    chain = commuting = 0

    def may_skip(f, g) -> bool:
        if not _coprime(f.leading_monomial(), g.leading_monomial()):
            return False
        if isinstance(f, Poly):
            return True
        return not (_index_support(f) & _index_support(g))

    def insert(h) -> None:
        nonlocal active, chain, commuting
        h = h.monic()
        lm_h = h.leading_monomial()
        j = len(basis)
        for (i, k), lcm in list(pending.items()):
            if (
                lm_h.divides(lcm)
                and lms[i].lcm(lm_h) != lcm
                and lms[k].lcm(lm_h) != lcm
            ):
                del pending[i, k]
                chain += 1
        chain += j - len(active)
        minimal: list[Monomial] = []
        candidates = []
        for i in active:
            lcm = lms[i].lcm(lm_h)
            if may_skip(basis[i], h):
                commuting += 1
                minimal.append(lcm)
            else:
                candidates.append((order_key(lcm), i, lcm))
        candidates.sort()
        for key, i, lcm in candidates:
            if any(m.divides(lcm) for m in minimal):
                chain += 1
                continue
            minimal.append(lcm)
            pending[i, j] = lcm
            heapq.heappush(queue, (key, i, j))
        active = [i for i in active if not lm_h.divides(lms[i])]
        active.append(j)
        basis.append(h)
        lms.append(lm_h)

    for g in gens:
        insert(g)
    processed = zero_reductions = 0
    while queue:
        _, i, j = heapq.heappop(queue)
        if pending.pop((i, j), None) is None:
            continue
        processed += 1
        spoly = s_polynomial(basis[i], basis[j])
        remainder = streaming_divide(dict(spoly.terms), spoly._make, basis)
        if remainder.is_zero():
            zero_reductions += 1
        else:
            insert(remainder)
    reduced = fixpoint_interreduce(basis)
    return GroebnerBasis(
        tuple(reduced), fresh_index(reduced), processed, zero_reductions, chain, commuting
    )


def _descending(mono: Monomial) -> tuple:
    """Heap key that pops the largest monomial in degrevlex first: the
    highest degree, then the smallest exponent in the last differing slot."""
    return -mono.total_degree(), tuple(reversed(mono.zexp + mono.dexp))


def streaming_divide(work, make, basis):
    """Left division of the terms ``work`` by ``basis`` on ``Monomial`` tuples:
    the divisor is found by scanning the leading monomials in list order, and
    each step streams quotient * basis[i] from ``_left_terms`` into ``work``,
    with no step table and no packing."""
    leading = [g.leading_monomial() for g in basis]
    heap = [(_descending(mono), mono) for mono in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.get(mono)
        if coeff is None:
            continue
        i = next((i for i, lm in enumerate(leading) if lm.divides(mono)), -1)
        if i < 0:
            remainder[mono] = work.pop(mono)
            continue
        quotient = mono.quotient(leading[i])
        factor = _exact_quotient(coeff, basis[i].leading_coefficient())
        for term, c in basis[i]._left_terms(quotient, factor):
            acc = work.get(term)
            if acc is None:
                work[term] = -c
                heapq.heappush(heap, (_descending(term), term))
            elif acc == c:
                del work[term]
            else:
                work[term] = acc - c
    return make(remainder)


def fresh_index(elements) -> _PackedBasis | None:
    """The packed division basis of ``elements``, built from scratch in list
    order with an empty step table; None for no elements."""
    if not elements:
        return None
    px = _PackedExponents(2 * elements[0].ambient, max(g.total_degree() for g in elements))
    basis = _PackedBasis(px, type(elements[0])._packed_left_terms)
    for g in elements:
        basis.append(*_packed(px, g))
    return basis


def one_pass_interreduce(elements) -> list:
    """The package's one-pass interreduction on packed exponents, for a
    nonempty list of monic elements of one ring."""
    return _interreduce(fresh_index(elements)).elements(elements[0]._make)


def index_state(basis: _PackedBasis | None) -> list:
    """What a packed basis holds, decoded field by field whatever its width:
    per element in list order, its leading exponents twice (from the entry
    and from the packed monomial) and its sorted terms, each with the slots
    its support bits mark.  ``unpacked_state`` computes the same from
    ``Monomial`` tuples."""
    if basis is None:
        return []
    width = basis.px.width
    slots = range(basis.px.slots)
    field = (1 << width) - 1

    def decode(packed: int) -> tuple[int, ...]:
        return tuple((packed >> (s * width)) & field for s in slots)

    def marked(support: int) -> tuple[int, ...]:
        return tuple(s for s in slots if support >> ((s + 1) * width - 1) & 1)

    return [
        (decode(lead), decode(p), sorted((decode(e), c, marked(sup)) for e, c, sup in terms))
        for terms, lead, p in zip(basis.terms, basis.leads, basis.packed)
    ]


def unpacked_state(elements) -> list:
    """``index_state`` of the packed basis of the monic ``elements``, read
    straight off their monomials with no packing."""
    return [
        (
            g.leading_monomial().slots(),
            g.leading_monomial().slots(),
            sorted(
                (m.slots(), c, tuple(s for s, e in enumerate(m.slots()) if e))
                for m, c in g.terms.items()
            ),
        )
        for g in elements
    ]


# -- Dense oracles for the Lie layer ------------------------------------------

def flatten(mat) -> list[Fraction]:
    return [entry for row in mat for entry in row]


def dense_bracket(a, b):
    """AB - BA by two dense products."""
    return [
        [x - y for x, y in zip(row_ab, row_ba)]
        for row_ab, row_ba in zip(mat_mul(a, b), mat_mul(b, a))
    ]


def dense_in_span(basis, mat) -> bool:
    rows = [flatten(b) for b in basis]
    return rank(rows) == rank(rows + [flatten(mat)])


def dense_coordinates(basis, mat):
    """Coordinates of ``mat`` in ``basis`` from the column system, or None."""
    columns = [flatten(b) for b in basis]
    system = [[col[k] for col in columns] for k in range(len(columns[0]))]
    return solve(system, flatten(mat))


def dense_bracket_defect(basis):
    """First 1-based pair whose bracket leaves the span, pair by pair."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not dense_in_span(basis, dense_bracket(basis[i], basis[j])):
                return i + 1, j + 1
    return None


def dense_vanishes_on_brackets(basis, values) -> bool:
    """The character test pair by pair, raising where a bracket has no value."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            coords = dense_coordinates(basis, dense_bracket(basis[i], basis[j]))
            if coords is None:
                raise ValueError("matrix lies outside the subalgebra")
            if sum(c * v for c, v in zip(coords, values)) != 0:
                return False
    return True


def check_groebner_spairs(generators: list[WeylElement]) -> int:
    """Buchberger criterion re-verified: every S-pair reduces to zero."""
    basis = LeftIdeal(generators).groebner_basis()
    checked = 0
    for f, g in combinations(basis.elements, 2):
        remainder = reduce_element(s_polynomial(f, g), basis.elements)
        assert remainder.is_zero(), (str(f), str(g), str(remainder))
        checked += 1
    return checked


def check_bernstein_inequality(seed: str, ambient: int = 2, rounds: int = 12) -> int:
    """Every proper ideal's characteristic dimension is at least the ambient.

    Random ideals occasionally have intractable bases; those rounds are
    skipped under a bounded pair budget rather than stalling the suite.
    """
    import os

    from weylkit import ImproperIdealError, graded_ideal, krull_dimension
    from weylkit.groebner import PAIR_LIMIT_ENV, PairLimitExceeded

    rng = random.Random(seed)
    verified = 0
    previous = os.environ.get(PAIR_LIMIT_ENV)
    os.environ[PAIR_LIMIT_ENV] = "60"
    try:
        for _ in range(rounds):
            generators = [
                random_element(rng, ambient, terms=2, max_exp=2)
                for _ in range(rng.randint(1, 2))
            ]
            try:
                dimension = krull_dimension(graded_ideal(LeftIdeal(generators)))
            except (ImproperIdealError, PairLimitExceeded):
                continue
            assert dimension >= ambient, [str(g) for g in generators]
            verified += 1
    finally:
        if previous is None:
            os.environ.pop(PAIR_LIMIT_ENV, None)
        else:
            os.environ[PAIR_LIMIT_ENV] = previous
    assert verified > 0
    return verified


def check_fourier_involution(seed: str, ambient: int = 3, rounds: int = 40) -> int:
    """The partial transform has order four and squares to the antipode."""
    rng = random.Random(seed)
    indices = frozenset({1, 3})
    for _ in range(rounds):
        p = random_element(rng, ambient)
        once = partial_fourier(p, indices)
        twice = partial_fourier(once, indices)
        fourth = partial_fourier(partial_fourier(twice, indices), indices)
        assert fourth == p
        antipode = WeylElement(
            ambient,
            {
                mono: coeff * (-1) ** sum(
                    mono.zexp[i - 1] + mono.dexp[i - 1] for i in indices
                )
                for mono, coeff in p.terms.items()
            },
        )
        assert twice == antipode
    return rounds


# -- Polynomial action by calculus -------------------------------------------


def z_derivative(polynomial: Poly, index: int) -> Poly:
    """Formal partial derivative of a polynomial with respect to z_index."""
    slot = index - 1
    out = {}
    for mono, coeff in polynomial:
        e = mono.zexp[slot]
        if e:
            lowered = mono.zexp[:slot] + (e - 1,) + mono.zexp[slot + 1 :]
            # Lowering one exponent is injective, so no two terms meet here.
            out[Monomial(lowered, mono.dexp)] = coeff * e
    return Poly(polynomial.ambient, out)


def act_by_calculus(op: WeylElement, polynomial: Poly) -> Poly:
    """Apply a normally ordered operator term by term: each d_i differentiates
    in z_i, then the z part multiplies."""
    m = polynomial.ambient
    total = Poly.zero(m)
    for mono, coeff in op:
        image = polynomial
        for i, b in enumerate(mono.dexp, start=1):
            for _ in range(b):
                image = z_derivative(image, i)
        total = total + image * Poly.from_monomial(Monomial(mono.zexp, (0,) * m), coeff)
    return total


def check_polynomial_action(seed: str, ambient: int = 3, rounds: int = 40) -> int:
    """act_on_polynomial agrees with the calculus oracle on random pairs."""
    rng = random.Random(seed)
    for _ in range(rounds):
        op = random_element(rng, ambient, terms=3, max_exp=3)
        polynomial = Poly(
            ambient,
            [
                (
                    Monomial(tuple(rng.randint(0, 4) for _ in range(ambient)), (0,) * ambient),
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                )
                for _ in range(rng.randint(1, 4))
            ],
        )
        assert act_on_polynomial(op, polynomial) == act_by_calculus(op, polynomial)
    return rounds
