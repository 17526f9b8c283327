"""Integral lattices: U, E8(-1), direct sums, the rank-22 even unimodular
lattice U^3 + E8(-1)^2, and invariant sublattices of involutions, all by
exact integer linear algebra. Involutions are ``linalg.ScaledInvolution``
records, shared with ``picard``; the swap involution here has scale 1.

The Gram matrices of U and E8(-1) are built in code, the latter from the
Dynkin diagram in Bourbaki's node order; every claim made about derived
lattices (rank, determinant, signature, parity) is a convention independent
invariant recomputed from scratch.
"""
from __future__ import annotations

from collections import namedtuple

from . import _checked_make
from .linalg import (ScaledInvolution, determinant, integer_matrix, matmul, signature,
                     symmetric_matrix, transpose)


class LatticeGram(namedtuple("LatticeGram", "gram")):
    """An integral symmetric bilinear form on Z^n, given by its Gram matrix."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, gram):
        return super().__new__(cls, symmetric_matrix(integer_matrix(gram, "gram matrix"),
                                                     "gram matrix"))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def determinant(self) -> int:
        d = determinant(self.gram)
        assert d.denominator == 1
        return int(d)

    def signature(self):
        return signature(self.gram)

    def all_entries_even(self) -> bool:
        return all(x % 2 == 0 for row in self.gram for x in row)


# the seven edges of the E8 Dynkin diagram, nodes 0..7 in Bourbaki order
_E8_EDGES = ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))


def hyperbolic_plane() -> LatticeGram:
    return LatticeGram(((0, 1), (1, 0)))


def e8_minus() -> LatticeGram:
    """The negated E8 Cartan matrix: -2 on the diagonal, 1 on each edge."""
    gram = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in _E8_EDGES:
        gram[i][j] = gram[j][i] = 1
    return LatticeGram(gram)


def direct_sum(*parts: LatticeGram) -> LatticeGram:
    """Block-diagonal sum, the parts' bases concatenated in order."""
    n = sum(p.rank for p in parts)
    gram = [[0] * n for _ in range(n)]
    offset = 0
    for p in parts:
        for i in range(p.rank):
            for j in range(p.rank):
                gram[offset + i][offset + j] = p.gram[i][j]
        offset += p.rank
    return LatticeGram(tuple(tuple(row) for row in gram))


def k3_lattice() -> LatticeGram:
    """U + U + U + E8(-1) + E8(-1), with the basis in the order
    v1, v2, v1', v2', v1'', v2'', e1'..e8', e1''..e8''."""
    return direct_sum(hyperbolic_plane(), hyperbolic_plane(), hyperbolic_plane(),
                      e8_minus(), e8_minus())


def build_vartheta(lattice: LatticeGram) -> ScaledInvolution:
    """The involution v_i -> -v_i, v_i' <-> v_i'', e_i' <-> e_i'' of k3_lattice()."""
    n = lattice.rank
    if n != 22:
        raise ValueError("the swap involution is defined on the rank-22 lattice")
    m = [[0] * n for _ in range(n)]
    m[0][0] = m[1][1] = -1
    for k in range(2):
        m[2 + k][4 + k] = 1
        m[4 + k][2 + k] = 1
    for k in range(8):
        m[6 + k][14 + k] = 1
        m[14 + k][6 + k] = 1
    return ScaledInvolution(m, lattice.gram)


def invariant_sublattice(lattice: LatticeGram, inv: ScaledInvolution):
    """The fixed lattice of the involution, with its restricted Gram form.

    The basis is ``inv.fixed_basis()``, computed through Hermite normal form;
    kernels of integer matrices are saturated, so the result is primitive in
    the ambient lattice by construction. Returns (sublattice, basis_rows).
    """
    if inv.gram != lattice.gram:
        raise ValueError("involution does not act on this lattice")
    basis = inv.fixed_basis()
    gram = matmul(matmul(basis, lattice.gram), transpose(basis))
    return LatticeGram(gram), basis
