"""Shared sparse-element machinery for the operator and symbol rings.

Elements are immutable maps from Monomial to a nonzero exact rational, so
each one computes its leading monomial at most once.  A coefficient is stored
as an ``int`` when it is integral and as a ``Fraction`` only when its
denominator exceeds 1, so most arithmetic runs on native ints; a sum or
product may leave a ``Fraction`` with denominator 1, which equals and hashes
as the ``int``.  No coefficient is ever a float: the one true division on
coefficients is ``_exact_quotient``.  The Lie and linear-algebra layers store
matrix entries, structure constants, character values and points by the same
rule, through ``_coefficient`` and ``_exact_quotient``.

Each ring supplies a printing dialect and one product method,
``_left_terms``: the terms of (coeff * mono) * self, one term of self at a
time, with monomials that may repeat.  ``*`` accumulates those terms
straight into a dict.  Division, in Buchberger and in reads, does not call
it: it multiplies packed exponents (see ``groebner._PackedExponents``)
through each ring's ``_packed_left_terms``, the same product on ints.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from numbers import Rational
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .monomial import Monomial, _check_ambient, unit_monomial
from .orders import DEFAULT_ORDER

Scalar = int | Fraction

_LOG10_2 = math.log10(2)


def _coefficient(value) -> Scalar:
    """An exact rational as the package stores it: an int when integral, else
    a Fraction.  Floats, strings and other non-rationals are refused."""
    if type(value) is int:
        return value
    if not isinstance(value, Rational):
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")
    c = Fraction(value)
    return c.numerator if c.denominator == 1 else c


def _exact_quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b without a float: an int when both are ints and b divides a."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b  # a Fraction on either side keeps the quotient exact


class SparseElement:
    """Base class: a finite rational linear combination of monomials."""

    __slots__ = ("_ambient", "_terms", "_lead")

    def __init__(self, ambient: int, terms: Mapping[Monomial, Scalar] | Iterable = ()):
        _check_ambient(ambient)
        items = terms.items() if isinstance(terms, Mapping) else terms
        nonzero = []
        for mono, coeff in items:
            if len(mono.zexp) != ambient or len(mono.dexp) != ambient:
                raise ValueError("monomial ambient mismatch")
            if min(mono.zexp, default=0) < 0 or min(mono.dexp, default=0) < 0:
                raise ValueError("negative exponent")
            c = _coefficient(coeff)
            if c:
                nonzero.append((mono, c))
        clean: dict[Monomial, Scalar] = {}
        _accumulate(clean, nonzero)
        _set_ambient(self, ambient)
        _set_terms(self, clean)
        _set_lead(self, None)

    def _make(self, clean: dict[Monomial, Scalar], lead: Monomial | None = None):
        """Same type and ambient around a dict that arithmetic on validated
        elements produced: nonzero coefficients on well-formed monomials, so the
        checks in ``__init__`` are skipped.  ``lead`` is passed on when the
        support is unchanged."""
        out = object.__new__(type(self))
        _set_ambient(out, self._ambient)
        _set_terms(out, clean)
        _set_lead(out, lead)
        return out

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("elements are immutable")

    @property
    def ambient(self) -> int:
        return self._ambient

    @property
    def terms(self) -> Mapping[Monomial, Scalar]:
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, Scalar]]:
        return iter(self._terms.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, SparseElement):
            return (
                type(self) is type(other)
                and self._ambient == other._ambient
                and self._terms == other._terms
            )
        if isinstance(other, (int, Fraction)):
            return self == type(self).constant(other, self._ambient)
        return NotImplemented

    __hash__ = None  # mutable-looking value semantics; not hashable

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, ambient: int):
        return cls(ambient, {})

    @classmethod
    def constant(cls, value: Scalar, ambient: int):
        return cls(ambient, {unit_monomial(ambient): _coefficient(value)})

    @classmethod
    def one(cls, ambient: int):
        return cls.constant(1, ambient)

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff: Scalar = 1):
        return cls(mono.ambient, {mono: _coefficient(coeff)})

    # -- linear structure ------------------------------------------------------

    def _require_same(self, other: "SparseElement") -> None:
        if type(self) is not type(other):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self._ambient != other._ambient:
            raise ValueError(
                f"ambient mismatch: {self._ambient} vs {other._ambient}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = type(self).constant(other, self._ambient)
        self._require_same(other)
        out = dict(self._terms)
        _accumulate(out, other._terms.items())
        return self._make(out)

    __radd__ = __add__

    def __neg__(self):
        return self._make({m: -c for m, c in self._terms.items()}, self._lead)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = type(self).constant(other, self._ambient)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scaled(self, value: Scalar):
        c = _coefficient(value)
        if not c:
            return type(self).zero(self._ambient)
        out: dict[Monomial, Scalar] = {}
        for m, k in self._terms.items():
            k *= c
            out[m] = k.numerator if k.denominator == 1 else k
        return self._make(out, self._lead)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        self._require_same(other)
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self._terms.items():
            _accumulate(out, other._left_terms(m1, c1))
        return self._make(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = type(self).one(self._ambient)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- leading data ----------------------------------------------------------

    def leading_monomial(self) -> Monomial:
        if self._lead is None:
            if not self._terms:
                raise ValueError("zero element has no leading monomial")
            # One term needs no comparison, and no order key.
            if len(self._terms) == 1:
                lead = next(iter(self._terms))
            else:
                lead = max(self._terms, key=DEFAULT_ORDER.key)
            _set_lead(self, lead)
        return self._lead

    def leading_coefficient(self) -> Scalar:
        return self._terms[self.leading_monomial()]

    def monic(self):
        if not self._terms:
            raise ValueError("cannot normalize the zero element")
        return self.scaled(_exact_quotient(1, self.leading_coefficient()))

    def total_degree(self) -> int:
        if not self._terms:
            raise ValueError("zero element has no degree")
        return max(m.total_degree() for m in self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        if len(self._terms) < 2:
            return list(self._terms.items())
        return sorted(self._terms.items(), key=lambda kv: DEFAULT_ORDER.key(kv[0]), reverse=True)


# The slot setters: ``__setattr__`` refuses, and these skip the attribute lookup.
_set_ambient = SparseElement._ambient.__set__
_set_terms = SparseElement._terms.__set__
_set_lead = SparseElement._lead.__set__

def _accumulate(out: dict[Monomial, Scalar], terms: Iterable[tuple[Monomial, Scalar]]) -> None:
    """Add ``terms`` into ``out`` in place, dropping monomials that cancel."""
    for mono, c in terms:
        acc = out.get(mono)
        if acc is None:
            out[mono] = c
        else:
            acc += c
            if acc:
                out[mono] = acc
            else:
                del out[mono]


def _check_printable(coeff: Scalar, term: str) -> None:
    """Raise a named error where ``str`` would hit the interpreter's limit on
    integer-to-string conversion (absent before Python 3.10.7; 0 means no
    limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    big = max(coeff.numerator, coeff.denominator)
    # b bits make at most floor(b * log10(2)) + 1 decimal digits.
    if not limit or big.bit_length() * _LOG10_2 < limit or big < 10**limit:
        return
    raise ValueError(
        f"the coefficient of {term} has {int(math.log10(big)) + 1} decimal digits, "
        f"more than the {limit} this Python prints"
    )


def format_terms(element: SparseElement, dlabel: str) -> str:
    """Render an element in the shared expression grammar, leading term first."""
    if element.is_zero():
        return "0"
    parts: list[str] = []
    for position, (mono, coeff) in enumerate(element.sorted_terms()):
        factors = []
        for i, e in enumerate(mono.zexp):
            if e == 1:
                factors.append(f"z{i + 1}")
            elif e > 1:
                factors.append(f"z{i + 1}^{e}")
        for i, e in enumerate(mono.dexp):
            if e == 1:
                factors.append(f"{dlabel}{i + 1}")
            elif e > 1:
                factors.append(f"{dlabel}{i + 1}^{e}")
        magnitude = abs(coeff)
        _check_printable(magnitude, "*".join(factors) or "1")
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude)] + factors)
        if position == 0:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)
