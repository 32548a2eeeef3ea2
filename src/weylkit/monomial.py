"""Exponent-vector monomials shared by the operator and symbol rings.

A monomial records exponents for the position variables z_1..z_m in ``zexp``
and for the companion block in ``dexp``.  In the Weyl algebra the companion
block holds derivation exponents; in the commutative symbol ring it holds the
zeta variables.  Both rings agree on the combinatorics below.
"""

from __future__ import annotations

from operator import add, sub
from typing import NamedTuple

MAX_AMBIENT = 1000  # variables per ring; the paper's scenarios use 4 and 6


class Monomial(NamedTuple):
    zexp: tuple[int, ...]
    dexp: tuple[int, ...]

    @property
    def ambient(self) -> int:
        return len(self.zexp)

    def total_degree(self) -> int:
        return sum(self.zexp) + sum(self.dexp)

    def is_unit(self) -> bool:
        return not any(self.zexp) and not any(self.dexp)

    def slots(self) -> tuple[int, ...]:
        """Concatenated exponent vector of length 2m (z block then d block)."""
        return self.zexp + self.dexp

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(
            tuple(map(add, self.zexp, other.zexp)),
            tuple(map(add, self.dexp, other.dexp)),
        )

    def divides(self, other: "Monomial") -> bool:
        # Plain loops: cheaper than all() over a generator on short vectors.
        for a, b in zip(self.zexp, other.zexp):
            if a > b:
                return False
        for a, b in zip(self.dexp, other.dexp):
            if a > b:
                return False
        return True

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other, assuming other divides self."""
        return Monomial(
            tuple(map(sub, self.zexp, other.zexp)),
            tuple(map(sub, self.dexp, other.dexp)),
        )

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(
            tuple(map(max, self.zexp, other.zexp)),
            tuple(map(max, self.dexp, other.dexp)),
        )


def unit_monomial(ambient: int) -> Monomial:
    _check_ambient(ambient)
    return Monomial((0,) * ambient, (0,) * ambient)


def z_monomial(index: int, ambient: int, power: int = 1) -> Monomial:
    _check_index(index, ambient)
    zexp = [0] * ambient
    zexp[index - 1] = power
    return Monomial(tuple(zexp), (0,) * ambient)


def d_monomial(index: int, ambient: int, power: int = 1) -> Monomial:
    _check_index(index, ambient)
    dexp = [0] * ambient
    dexp[index - 1] = power
    return Monomial((0,) * ambient, tuple(dexp))


def _check_ambient(ambient: int) -> None:
    """Refuse an ambient before anything of its size is built."""
    if not 0 <= ambient <= MAX_AMBIENT:
        raise ValueError(f"ambient {ambient} outside 0..{MAX_AMBIENT}")


def _check_index(index: int, ambient: int) -> None:
    _check_ambient(ambient)
    if not 1 <= index <= ambient:
        raise ValueError(f"variable index {index} out of range 1..{ambient}")
