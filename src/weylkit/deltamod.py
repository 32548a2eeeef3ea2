"""Delta-type modules: operator actions on sections, annihilator certificates.

A module is fixed by choosing the set S of distribution directions.  Its
sections are spanned by z^a d^b "delta" with a supported off S and b on S;
variables in S act by lowering (z) and raising (d), the rest act by
multiplication (z) and differentiation (d).  The companion polynomial model
replaces d_i delta by -z_i for i in S, which intertwines the action through
the partial Fourier automorphism on S.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm
from typing import Sequence

from .base import Scalar, _accumulate, _exact_quotient, format_terms
from .charvar import HolonomicityCertificate, simplicity_certificate
from .groebner import LeftIdeal
from .monomial import Monomial, _check_ambient, _check_index
from .poly import Poly
from .weyl import WeylElement


@dataclass(frozen=True)
class DeltaModule:
    """Choice of distribution directions S inside the m coordinates."""

    ambient: int
    support: frozenset[int]

    def __post_init__(self):
        _check_ambient(self.ambient)
        for i in self.support:
            _check_index(i, self.ambient)


class DeltaSection:
    """Finite combination of monomial sections of a fixed delta module."""

    __slots__ = ("module", "_data")

    def __init__(self, module: DeltaModule, data: Poly):
        if data.ambient != module.ambient:
            raise ValueError("section data has wrong ambient")
        m = module.ambient
        for mono in data.terms:
            for i in range(1, m + 1):
                if i in module.support and mono.zexp[i - 1]:
                    raise ValueError(f"z{i} cannot appear in a section term")
                if i not in module.support and mono.dexp[i - 1]:
                    raise ValueError(f"d{i} cannot appear in a section term")
        self.module = module
        self._data = data

    @property
    def data(self) -> Poly:
        return self._data

    def is_zero(self) -> bool:
        return self._data.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeltaSection):
            return NotImplemented
        return self.module == other.module and self._data == other._data

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return f"({format_terms(self._data, 'd')}) delta"

    def __repr__(self) -> str:
        return f"DeltaSection({sorted(self.module.support)}, {self!s})"


def delta(module: DeltaModule) -> DeltaSection:
    return DeltaSection(module, Poly.one(module.ambient))


def act(op: WeylElement, section: DeltaSection) -> DeltaSection:
    """Apply an operator to a section.

    Monomials are normally ordered, so the d block acts first.  Per variable:
    on S, d raises the delta derivative and z lowers it with the factor
    -(current order); off S, z multiplies and d differentiates.
    """
    module = section.module
    m = module.ambient
    if op.ambient != m:
        raise ValueError("operator and section ambient mismatch")
    out: dict[Monomial, Scalar] = {}
    _accumulate(out, _act_terms(op, module, section.data))
    return DeltaSection(module, Poly(m, out))


def _act_terms(op: WeylElement, module: DeltaModule, data: Poly):
    """The terms of ``act``, one per pair of operator and section terms, with
    monomials that may repeat."""
    m = module.ambient
    for omono, ocoeff in op:
        for smono, scoeff in data:
            coeff = ocoeff * scoeff
            alpha = list(smono.zexp)
            beta = list(smono.dexp)
            for slot in range(m):
                a = omono.zexp[slot]
                b = omono.dexp[slot]
                if slot + 1 in module.support:
                    order = beta[slot] + b
                    if a:
                        fall = perm(order, a)
                        if fall == 0:
                            break
                        coeff *= (-1) ** a * fall
                        order -= a
                    beta[slot] = order
                else:
                    power = alpha[slot]
                    if b:
                        fall = perm(power, b)
                        if fall == 0:
                            break
                        coeff *= fall
                        power -= b
                    alpha[slot] = power + a
            else:
                yield Monomial(tuple(alpha), tuple(beta)), coeff


def section_from_operator(module: DeltaModule, op: WeylElement) -> DeltaSection:
    """The section obtained by applying an operator to the canonical delta."""
    return act(op, delta(module))


def act_on_polynomial(op: WeylElement, polynomial: Poly) -> Poly:
    """Standard action on polynomials in z: d differentiates, z multiplies.

    This is ``act`` on the delta module with empty support, whose sections
    are exactly the polynomials in z; a target carrying symbols, or of the
    wrong ambient, is rejected there.
    """
    module = DeltaModule(polynomial.ambient, frozenset())
    return act(op, DeltaSection(module, polynomial)).data


def delta_to_polynomial(section: DeltaSection) -> Poly:
    """Dictionary z^a d^b delta -> (-1)^|b| z^a z^b onto plain polynomials."""
    m = section.module.ambient
    out: dict[Monomial, Scalar] = {}
    _accumulate(
        out,
        (
            (
                Monomial(tuple(z + dd for z, dd in zip(mono.zexp, mono.dexp)), (0,) * m),
                coeff * (-1) ** sum(mono.dexp),
            )
            for mono, coeff in section.data
        ),
    )
    return Poly(m, out)


@dataclass(frozen=True)
class AnnihilatorCertificate:
    """Proof sketch that an ideal is the exact annihilator of a section.

    The three ingredients: the section is nonzero, every generator kills it,
    and the cyclic module presented by the ideal is certified simple.  Then
    the annihilator contains the ideal and the simple quotient maps onto the
    nonzero submodule generated by the section, forcing equality.
    """

    verified: bool
    failing: str | None
    witness: int | None
    simplicity: HolonomicityCertificate | None


def certify_annihilator(ideal: LeftIdeal, section: DeltaSection) -> AnnihilatorCertificate:
    if section.is_zero():
        return AnnihilatorCertificate(False, "section_nonzero", None, None)
    for index, generator in enumerate(ideal.generators, start=1):
        if not act(generator, section).is_zero():
            return AnnihilatorCertificate(False, "generators_annihilate", index, None)
    cert = simplicity_certificate(ideal)
    if cert.simple != "yes":
        return AnnihilatorCertificate(False, "simplicity", None, cert)
    return AnnihilatorCertificate(True, None, None, cert)


def lagrange_projector(euler: WeylElement, level: int, lmax: int) -> WeylElement:
    """Polynomial in the Euler-type operator: 1 at level, 0 at the other
    integers in 0..lmax."""
    out = WeylElement.one(euler.ambient)
    for other in range(lmax + 1):
        if other == level:
            continue
        out = (out * (euler - other)).scaled(_exact_quotient(1, level - other))
    return out


def interpolation_lift(targets: Sequence[tuple[int, WeylElement]], lmax: int) -> WeylElement:
    """Single operator agreeing with each target at its level.

    Builds sum of P_l times the projector at l, a polynomial in the
    Euler-type operator z1 d1 vanishing at every other integer level up to
    lmax.  Whenever an ideal contains z1 d1 - l, the difference between the
    lift and P_l is a left multiple of z1 d1 - l, hence lies in the ideal;
    that is the congruence the callers verify.
    """
    if not targets:
        raise ValueError("need at least one target")
    levels = [level for level, _ in targets]
    if len(set(levels)) != len(levels):
        raise ValueError("levels must be distinct")
    if any(not 0 <= level <= lmax for level in levels):
        raise ValueError(f"levels must lie in 0..{lmax}")
    ambient = targets[0][1].ambient
    first = (1,) + (0,) * (ambient - 1)
    euler = WeylElement.from_monomial(Monomial(first, first))
    total = WeylElement.zero(ambient)
    for level, element in targets:
        total = total + element * lagrange_projector(euler, level, lmax)
    return total
