"""The monomial term order: degree reverse lexicographic on the slot vector.

The order reads the 2m slot vector (z block then companion block).  It is
total, multiplicative, has the unit monomial smallest and refines total
degree, which is what division, Buchberger and the Bernstein-filtration
graded ideal rely on.

``key`` orders ``Monomial`` tuples: leading monomials, printing.  Division
and Buchberger run on packed exponents instead, whose entries sort exactly
opposite to ``key`` (``groebner._PackedExponents``), so a min-heap of them
pops the largest monomial first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monomial import Monomial


@dataclass(frozen=True)
class TermOrder:
    """Degree reverse lexicographic order on the 2m exponent slots."""

    def key(self, mono: Monomial):
        """Sort key; larger key means larger monomial.

        On equal degree the last differing slot decides, smaller exponent
        there wins.
        """
        slots = mono.slots()
        return (sum(slots), tuple(-e for e in reversed(slots)))


DEFAULT_ORDER = TermOrder()
