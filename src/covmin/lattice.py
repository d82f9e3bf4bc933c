"""Lattices with exact rational bases, their duals, and generated groups."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import BudgetExceeded, InputError, Singular
from .linalg import RatMat, RatVec, clear_denominators, det, hnf, mat, mat_inverse, mat_vec, transpose, vec

DEFAULT_SCALE_BITS = 4096


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice given by basis vectors (one per row of ``basis``).

    The lattice is ``{sum_i t_i basis[i] : t integral}``; membership testing
    solves for the coefficients exactly.
    """

    basis: RatMat

    def __post_init__(self):
        b = mat(self.basis)
        object.__setattr__(self, "basis", b)
        if not b or any(len(row) != len(b) for row in b):
            raise InputError("lattice basis must be square")
        if det(b) == 0:
            raise Singular("lattice basis is singular")

    @staticmethod
    def standard(d: int) -> "Lattice":
        return Lattice(tuple(
            tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)
        ))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _coeff_matrix(self) -> RatMat:
        # maps a point x to its basis coefficients t with x = sum t_i basis[i]
        return mat_inverse(transpose(self.basis))

    @cached_property
    def dual_basis(self) -> RatMat:
        """Basis of the dual lattice: row i pairs to 1 with ``basis[i]``, 0 with the rest."""
        return self._coeff_matrix

    @property
    def dual(self) -> "Lattice":
        return Lattice(self.dual_basis)

    def coefficients(self, x: RatVec) -> RatVec:
        return mat_vec(self._coeff_matrix, vec(x))

    def from_coefficients(self, t) -> RatVec:
        return mat_vec(transpose(self.basis), vec(t))

    def __contains__(self, x) -> bool:
        return all(c.denominator == 1 for c in self.coefficients(vec(x)))

    def is_identity(self) -> bool:
        d = self.dim
        return self.basis == tuple(
            tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)
        )


def group_basis(generators, ambient_dim: int, *, scale_bits: int = DEFAULT_SCALE_BITS) -> list[RatVec]:
    """Basis of the discrete group generated by finitely many rational vectors.

    The generators are scaled by the lcm of their denominators, reduced with
    integer row HNF, and scaled back, so every generator is an exact integer
    combination of the result.  A finite rational generating set always spans
    a discrete group (it lies in ``(1/scale) Z^d``), so no non-discreteness
    error can occur here.

    Raises:
        BudgetExceeded: if the common denominator exceeds ``scale_bits`` bits.
    """
    gens = [vec(g) for g in generators]
    for g in gens:
        if len(g) != ambient_dim:
            raise InputError("generator dimension mismatch")
    gens = [g for g in gens if any(e != 0 for e in g)]
    if not gens:
        return []
    ints, scale = clear_denominators(gens)
    if scale.bit_length() > scale_bits:
        raise BudgetExceeded(f"common denominator needs {scale.bit_length()} bits > {scale_bits}")
    H, _ = hnf(ints)
    inv = Fraction(1, scale)
    return [tuple(e * inv for e in row) for row in H if any(row)]
