"""Matrix Lie algebra data: subalgebras, characters, operator realizations.

Matrices act on the z coordinates.  Two realizations matter: the twisted one
rho(A) = -sum a_ij z_j d_i, a Lie algebra homomorphism used to present
modules by ideals rho(x) - chi(x); and the geometric vector field
v_A = sum (Az)_i d_i used for orbit tangent spaces and variety stability.
The two differ by a sign, which flips the bracket: v is an antihomomorphism.
So v_A acts on polynomials as -rho(A) does, through ``act_on_polynomial``.

A subalgebra does its linear algebra once, on sparse matrices (dicts of
nonzero entries keyed by (row, column)).  Construction echelonizes the basis
and keeps, for each echelon row, its combination of basis elements, so
coordinates are one pass of back-substitution.  The structure constants
c_ij^k, the coordinates of [b_i, b_j] for i < j, are computed from sparse
brackets on first use and cached; bracket closure and the character
condition sum_k c_ij^k chi_k = 0 are both read from that table (de Graaf,
Lie Algebras: Theory and Algorithms, 2000, ch. 1).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Sequence

from .base import Scalar, _coefficient, _exact_quotient
from .deltamod import act_on_polynomial
from .linalg import Matrix, Vector, invert, mat_mul, matrix, rank
from .monomial import Monomial
from .parser import ParseError, read_arithmetic
from .poly import Poly
from .weyl import WeylElement

# Nonzero entries of a matrix, keyed by 0-based (row, column).
Sparse = dict[tuple[int, int], Scalar]


def _sparse(mat: Matrix) -> Sparse:
    return {(i, j): v for i, row in enumerate(mat) for j, v in enumerate(row) if v}


def _sparse_bracket(a: Sparse, b: Sparse) -> Sparse:
    """[a, b] = ab - ba, one product term per pair of nonzero entries."""
    out: Sparse = {}
    for (i, k), x in a.items():
        for (p, j), y in b.items():
            if k == p:
                out[i, j] = out.get((i, j), 0) + x * y
            if j == i:
                out[p, k] = out.get((p, k), 0) - y * x
    return {key: v for key, v in out.items() if v}


def parse_matrix_expr(text: str, size: int) -> Matrix:
    """Sum of terms sign? (uint '*')? E<i><j>, single-digit indices, that
    parentheses may group: each E<i><j> counts times the factors above it."""
    out = [[0] * size for _ in range(size)]
    stack = [(read_arithmetic(text, ParseError)[-1], 1)]
    while stack:
        node, factor = stack.pop()
        if isinstance(node, ast.UnaryOp):
            stack.append((node.operand, -factor if isinstance(node.op, ast.USub) else factor))
        elif isinstance(node, ast.BinOp) and not isinstance(node.op, ast.Mult):
            sign = -1 if isinstance(node.op, ast.Sub) else 1
            stack += (node.left, factor), (node.right, sign * factor)
        elif isinstance(node, ast.BinOp):  # a product; Python reads -2*E12 as (-2)*E12
            try:
                stack.append((node.right, factor * ast.literal_eval(node.left)))
            except ValueError:
                raise ParseError(f"{text!r}: a product needs an integer on its left") from None
        elif isinstance(node, ast.Name):
            match = re.fullmatch(r"E([0-9])([0-9])", node.id)
            if not (match and all(1 <= int(k) <= size for k in match.groups())):
                raise ParseError(f"{node.id!r} in {text!r} is not a {size}x{size} E<i><j>")
            out[int(match[1]) - 1][int(match[2]) - 1] += factor
        else:
            raise ParseError(f"{text!r} is not a sum of terms (uint*)? E<i><j>")
    return out


class LieSubalgebra:
    """Span of finitely many square matrices, with bracket-closure checking."""

    def __init__(self, size: int, basis: Sequence[Matrix]):
        self._size = size
        self._basis = [self._checked(b) for b in basis]
        self._sparse_basis = [_sparse(b) for b in self._basis]
        # Echelon rows in basis order: (pivot, row, transform) with row[pivot]
        # == 1, row zero at every earlier pivot, and row equal to the sum of
        # transform[k] * basis[k].
        self._echelon: list[tuple[tuple[int, int], Sparse, dict[int, Scalar]]] = []
        for index, entries in enumerate(self._sparse_basis):
            residue, combination = self._reduce(entries)
            if not residue:
                raise ValueError("basis matrices are linearly dependent")
            pivot = min(residue)
            scale = residue[pivot]
            transform = {k: _exact_quotient(-c, scale) for k, c in combination.items()}
            transform[index] = _exact_quotient(1, scale)
            row = {key: _exact_quotient(v, scale) for key, v in residue.items()}
            self._echelon.append((pivot, row, transform))
        self._structure: dict[tuple[int, int], dict[int, Scalar] | None] | None = None

    def _checked(self, mat: Matrix) -> Matrix:
        mat = matrix(mat)
        if len(mat) != self._size or any(len(row) != self._size for row in mat):
            raise ValueError(f"expected {self._size} x {self._size} matrices")
        return mat

    def _reduce(self, entries: Sparse) -> tuple[Sparse, dict[int, Scalar]]:
        """Back-substitution: (residue, combination) with entries equal to
        residue + sum combination[k] * basis[k] and residue zero at every pivot."""
        residue = dict(entries)
        combination: dict[int, Scalar] = {}
        for pivot, row, transform in self._echelon:
            factor = residue.get(pivot)
            if factor is None:
                continue
            for key, v in row.items():
                updated = residue.get(key, 0) - factor * v
                if updated:
                    residue[key] = updated
                else:
                    del residue[key]
            for k, t in transform.items():
                combination[k] = combination.get(k, 0) + factor * t
        return residue, combination

    def _structure_constants(self) -> dict[tuple[int, int], dict[int, Scalar] | None]:
        """c_ij^k by 0-based pair (i, j), i < j, in row order; None where [b_i, b_j]
        leaves the span.  Computed on first use and cached."""
        if self._structure is None:
            sparse = self._sparse_basis
            table = {}
            for i in range(len(sparse)):
                for j in range(i + 1, len(sparse)):
                    residue, combination = self._reduce(_sparse_bracket(sparse[i], sparse[j]))
                    table[i, j] = None if residue else combination
            self._structure = table
        return self._structure

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
        residue, combination = self._reduce(_sparse(self._checked(mat)))
        if residue:
            return None
        return [_coefficient(combination.get(k, 0)) for k in range(self.dimension)]

    def contains(self, mat: Matrix) -> bool:
        return self.coordinates(mat) is not None

    def bracket_defect(self) -> tuple[int, int] | None:
        """First basis pair (1-based) whose bracket escapes the span, if any."""
        for (i, j), constants in self._structure_constants().items():
            if constants is None:
                return i + 1, j + 1
        return None


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
    values: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.values) != self.algebra.dimension:
            raise ValueError("one value per basis element required")

    def vanishes_on_brackets(self) -> bool:
        """A character must kill [x, y]: sum_k c_ij^k chi_k = 0 on all basis pairs."""
        for constants in self.algebra._structure_constants().values():
            if constants is None:
                raise ValueError("matrix lies outside the subalgebra")
            if sum(c * self.values[k] for k, c in constants.items()):
                return False
        return True


def character_from_values(algebra: LieSubalgebra, values: Sequence[Scalar]) -> Character:
    return Character(algebra, tuple(_coefficient(v) for v in values))


def rho(mat: Matrix, ambient: int | None = None) -> WeylElement:
    """Operator realization rho(A) = -sum a_ij z_j d_i; a homomorphism of brackets."""
    a = matrix(mat)
    m = len(a)
    if ambient is None:
        ambient = m
    if ambient != m or any(len(row) != m for row in a):
        raise ValueError("matrix size must match the ambient variable count")
    unit = [tuple(int(k == i) for k in range(m)) for i in range(m)]
    entries = ((i, j, v) for i, row in enumerate(a) for j, v in enumerate(row) if v)
    return WeylElement(m, {Monomial(unit[j], unit[i]): -v for i, j, v in entries})


def twisted_generators(character: Character) -> list[WeylElement]:
    """Generators rho(x_k) - chi(x_k) of the twisted system I(h, chi), with
    x_k the basis of the character's subalgebra h."""
    algebra = character.algebra
    return [
        rho(x) - WeylElement.constant(v, algebra.size)
        for x, v in zip(algebra._basis, character.values)
    ]


def apply_vector_field(mat: Matrix, polynomial: Poly) -> Poly:
    """Derivation action of v_A on a polynomial in the z variables only."""
    if any(any(mono.dexp) for mono in polynomial.terms):
        raise ValueError("vector fields act on polynomials without symbols")
    return act_on_polynomial(-rho(mat, polynomial.ambient), polynomial)


def tangent_rank_at(basis: Sequence[Matrix], point: Sequence[Scalar]) -> int:
    """Rank of the orbit-map differential: span of A p over the basis."""
    p = [_coefficient(v) for v in point]
    rows = []
    for b in basis:
        a = matrix(b)
        if any(len(row) != len(p) for row in a):
            raise ValueError("matrix size must match the point length")
        rows.append([sum(row[j] * p[j] for j in range(len(p))) for row in a])
    return rank(rows)
