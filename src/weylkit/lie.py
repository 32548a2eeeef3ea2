"""Matrix Lie algebra data: subalgebras, characters, operator realizations.

Matrices act on the z coordinates.  Two realizations matter: the twisted one
rho(A) = -sum a_ij z_j d_i, a Lie algebra homomorphism used to present
modules by ideals rho(x) - chi(x); and the geometric vector field
v_A = sum (Az)_i d_i used for orbit tangent spaces and variety stability.
The two differ by a sign, which flips the bracket: v is an antihomomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .base import Scalar, as_fraction
from .linalg import Matrix, Vector, in_span, mat_mul, mat_sub, matrix, rank, solve, invert
from .parser import ParseError
from .poly import Poly
from .weyl import WeylElement, d, z


def elementary(i: int, j: int, size: int) -> Matrix:
    if not (1 <= i <= size and 1 <= j <= size):
        raise ValueError(f"entry ({i}, {j}) out of range for size {size}")
    out = [[Fraction(0)] * size for _ in range(size)]
    out[i - 1][j - 1] = Fraction(1)
    return out


def bracket(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def parse_matrix_expr(text: str, size: int) -> Matrix:
    """Sum of elementary matrices: sign? (uint '*')? E<i><j>, single-digit indices."""
    out = [[Fraction(0)] * size for _ in range(size)]
    pos = 0
    n = len(text)
    first = True
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            if first:
                raise ParseError("empty matrix expression", pos)
            return out
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
            while pos < n and text[pos].isspace():
                pos += 1
        elif not first:
            raise ParseError("expected + or - between terms", pos)
        coeff = 1
        if pos < n and text[pos].isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            coeff = int(text[start:pos])
            while pos < n and text[pos].isspace():
                pos += 1
            if pos < n and text[pos] == "*":
                pos += 1
                while pos < n and text[pos].isspace():
                    pos += 1
        if pos >= n or text[pos] != "E":
            raise ParseError("expected an elementary matrix E<i><j>", pos)
        pos += 1
        if pos + 1 >= n or not (text[pos].isdigit() and text[pos + 1].isdigit()):
            raise ParseError("expected two index digits after E", pos)
        i, j = int(text[pos]), int(text[pos + 1])
        pos += 2
        if not (1 <= i <= size and 1 <= j <= size):
            raise ParseError(f"entry ({i}, {j}) out of range for size {size}", pos - 2)
        out[i - 1][j - 1] += sign * coeff
        first = False


class LieSubalgebra:
    """Span of finitely many square matrices, with bracket-closure checking."""

    def __init__(self, size: int, basis: Sequence[Matrix]):
        self._size = size
        checked = []
        for b in basis:
            mat = matrix(b)
            if len(mat) != size or any(len(row) != size for row in mat):
                raise ValueError(f"expected {size} x {size} matrices")
            checked.append(mat)
        self._basis = checked
        flat = [self._flatten(b) for b in checked]
        if rank(flat) != len(checked):
            raise ValueError("basis matrices are linearly dependent")

    @staticmethod
    def _flatten(mat: Matrix) -> Vector:
        return [entry for row in mat for entry in row]

    @property
    def size(self) -> int:
        return self._size

    @property
    def basis(self) -> list[Matrix]:
        return [[row[:] for row in b] for b in self._basis]

    @property
    def dimension(self) -> int:
        return len(self._basis)

    def coordinates(self, mat: Matrix) -> Vector | None:
        columns = [self._flatten(b) for b in self._basis]
        # Solve as a column system: stack basis vectors as matrix columns.
        system = [[col[k] for col in columns] for k in range(self._size**2)]
        return solve(system, self._flatten(matrix(mat)))

    def contains(self, mat: Matrix) -> bool:
        return self.coordinates(mat) is not None

    def bracket_defect(self) -> tuple[int, int] | None:
        """First basis pair (1-based) whose bracket escapes the span, if any."""
        flat = [self._flatten(b) for b in self._basis]
        for i in range(len(self._basis)):
            for j in range(i + 1, len(self._basis)):
                lie = self._flatten(bracket(self._basis[i], self._basis[j]))
                if not in_span(flat, lie):
                    return i + 1, j + 1
        return None

    def is_subalgebra(self) -> bool:
        return self.bracket_defect() is None


def conjugate_subalgebra(conjugator: Matrix, algebra: LieSubalgebra) -> LieSubalgebra:
    """Subalgebra with basis c x c^-1 for x in the given basis."""
    c = matrix(conjugator)
    c_inv = invert(c)
    return LieSubalgebra(
        algebra.size, [mat_mul(mat_mul(c, b), c_inv) for b in algebra.basis]
    )


@dataclass(frozen=True)
class Character:
    """Linear functional on a subalgebra, given by its values on the basis."""

    algebra: LieSubalgebra
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.algebra.dimension:
            raise ValueError("one value per basis element required")

    def value(self, mat: Matrix) -> Fraction:
        coords = self.algebra.coordinates(mat)
        if coords is None:
            raise ValueError("matrix lies outside the subalgebra")
        return sum((c * v for c, v in zip(coords, self.values)), Fraction(0))

    def vanishes_on_brackets(self) -> bool:
        """A character must kill [x, y]; checked on all basis pairs."""
        basis = self.algebra.basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                if self.value(bracket(basis[i], basis[j])) != 0:
                    return False
        return True


def character_from_values(algebra: LieSubalgebra, values: Sequence[Scalar]) -> Character:
    return Character(algebra, tuple(as_fraction(v) for v in values))


def rho(mat: Matrix, ambient: int | None = None) -> WeylElement:
    """Operator realization rho(A) = -sum a_ij z_j d_i; a homomorphism of brackets."""
    a = matrix(mat)
    m = len(a)
    if ambient is None:
        ambient = m
    if ambient != m or any(len(row) != m for row in a):
        raise ValueError("matrix size must match the ambient variable count")
    out = WeylElement.zero(m)
    for i in range(m):
        for j in range(m):
            if a[i][j]:
                out = out - (z(j + 1, m) * d(i + 1, m)).scaled(a[i][j])
    return out


def vector_field(mat: Matrix) -> list[Poly]:
    """Coefficients of the geometric vector field sum (Az)_i d_i.

    Entry i is the polynomial (Az)_i multiplying d_i, i.e. the velocity of
    coordinate z_{i+1} under the linear flow of A.  As a derivation this is
    ``apply_vector_field``; as an operator it is -rho(A), and its brackets
    come out reversed relative to the matrix bracket.
    """
    a = matrix(mat)
    m = len(a)
    from .poly import poly_z

    out = []
    for i in range(m):
        entry = Poly.zero(m)
        for j in range(m):
            if a[i][j]:
                entry = entry + poly_z(j + 1, m).scaled(a[i][j])
        out.append(entry)
    return out


def vector_field_operator(mat: Matrix) -> WeylElement:
    """The vector field as an operator, sum (Az)_i d_i = -rho(A)."""
    return -rho(mat)


def twisted_generators(algebra: LieSubalgebra, character: Character) -> list[WeylElement]:
    """Generators rho(x_k) - chi(x_k) of the induced presentation ideal."""
    if character.algebra is not algebra and character.algebra.basis != algebra.basis:
        raise ValueError("character belongs to a different subalgebra")
    return [
        rho(x) - WeylElement.constant(v, algebra.size)
        for x, v in zip(algebra.basis, character.values)
    ]


def apply_vector_field(mat: Matrix, polynomial: Poly) -> Poly:
    """Derivation action of v_A on a polynomial in the z variables only."""
    if any(any(mono.dexp) for mono in polynomial.terms):
        raise ValueError("vector fields act on polynomials without symbols")
    a = matrix(mat)
    m = polynomial.ambient
    if len(a) != m:
        raise ValueError("matrix size must match the ambient variable count")
    from .poly import poly_z

    out = Poly.zero(m)
    for i in range(m):
        partial = polynomial.derivative("z", i + 1)
        if partial.is_zero():
            continue
        for j in range(m):
            if a[i][j]:
                out = out + (poly_z(j + 1, m) * partial).scaled(a[i][j])
    return out


def variety_stable(mat: Matrix, ideal_generators: Sequence[Poly]) -> bool:
    """Whether v_A maps the ideal of a variety into itself (infinitesimal stability)."""
    from .groebner import LeftIdeal

    ideal = LeftIdeal(list(ideal_generators))
    return all(ideal.contains(apply_vector_field(mat, g)) for g in ideal_generators)


def tangent_rank_at(basis: Sequence[Matrix], point: Sequence[Scalar]) -> int:
    """Rank of the orbit-map differential: span of A p over the basis."""
    p = [as_fraction(v) for v in point]
    rows = []
    for b in basis:
        a = matrix(b)
        if any(len(row) != len(p) for row in a):
            raise ValueError("matrix size must match the point length")
        rows.append([sum((row[j] * p[j] for j in range(len(p))), Fraction(0)) for row in a])
    return rank(rows)
