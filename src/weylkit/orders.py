"""The monomial term order: degree reverse lexicographic on the slot vector.

The order reads the 2m slot vector (z block then companion block).  It is
total, multiplicative, has the unit monomial smallest and refines total
degree, which is what division, Buchberger and the Bernstein-filtration
graded ideal rely on.
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

    def heap_key(self, mono: Monomial):
        """Min-heap key: ``key`` negated entry by entry, so it sorts exactly
        opposite to ``key`` and a heap pops the largest monomial first."""
        slots = mono.slots()
        return (-sum(slots), slots[::-1])


DEFAULT_ORDER = TermOrder()
