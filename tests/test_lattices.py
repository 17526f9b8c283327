from fractions import Fraction

import pytest

from ulrichcert.lattices import (LatticeGram, build_vartheta, direct_sum, e8_minus,
                                 hyperbolic_plane, invariant_sublattice, k3_lattice)
from ulrichcert.linalg import (ScaledInvolution, hermite_normal_form, hnf_contains,
                               integer_kernel, matvec)


def model_invariant_basis():
    """The explicit invariant vectors v_i' + v_i'' and e_j' + e_j''."""
    vectors = []
    for k in range(2):
        vec = [0] * 22
        vec[2 + k] = 1
        vec[4 + k] = 1
        vectors.append(tuple(vec))
    for k in range(8):
        vec = [0] * 22
        vec[6 + k] = 1
        vec[14 + k] = 1
        vectors.append(tuple(vec))
    return vectors


def scaled(lattice, k):
    return LatticeGram(tuple(tuple(k * x for x in row) for row in lattice.gram))


def u2_e8m2_model() -> LatticeGram:
    """The expected invariant form U(2) + E8(-2)."""
    return direct_sum(scaled(hyperbolic_plane(), 2), scaled(e8_minus(), 2))


def same_row_lattice(rows_a, rows_b) -> bool:
    """Do two integer row sets span the same sublattice of Z^n?"""
    hnf_a, piv_a = hermite_normal_form(list(rows_a))
    hnf_b, piv_b = hermite_normal_form(list(rows_b))
    return hnf_a == hnf_b and piv_a == piv_b


def is_primitive_sublattice(rows, ambient_rank: int) -> bool:
    """True iff the rows span a saturated (primitive) sublattice of Z^n.

    The saturation is computed as the kernel of the kernel: both kernels of
    integer matrices are saturated, and the double kernel recovers exactly
    the rational row span intersected with Z^n.
    """
    rows = [list(r) for r in rows]
    complement = integer_kernel(rows, ambient_rank)
    saturation = integer_kernel(complement, ambient_rank)
    hnf, pivots = hermite_normal_form(rows)
    return all(hnf_contains(hnf, pivots, v) for v in saturation)


def test_hyperbolic_plane_invariants():
    u = hyperbolic_plane()
    assert u.rank == 2
    assert u.determinant() == -1
    assert u.signature() == (1, 1)
    assert [u.gram[i][i] for i in range(2)] == [0, 0]


def test_e8_minus_invariants():
    e8 = e8_minus()
    assert e8.rank == 8
    assert e8.determinant() == 1
    assert e8.signature() == (0, 8)
    assert [e8.gram[i][i] for i in range(8)] == [-2] * 8


def test_direct_sum_of_two_planes():
    lat = direct_sum(hyperbolic_plane(), hyperbolic_plane())
    assert lat.rank == 4
    assert lat.determinant() == 1


def test_empty_direct_sum():
    assert direct_sum().rank == 0


def test_k3_lattice_invariants():
    lam = k3_lattice()
    assert lam.rank == 22
    assert lam.determinant() == -1
    assert lam.signature() == (3, 19)
    # basis order v1, v2, v1', v2', v1'', v2'', e1'..e8', e1''..e8''
    assert [lam.gram[i][i] for i in range(22)] == [0] * 6 + [-2] * 16
    assert lam.gram[0][1] == lam.gram[2][3] == lam.gram[4][5] == 1


def test_vartheta_action():
    lam = k3_lattice()
    inv = build_vartheta(lam)
    v1 = tuple(1 if i == 0 else 0 for i in range(22))
    assert matvec(inv.matrix, v1) == tuple(-1 if i == 0 else 0 for i in range(22))
    v1p = tuple(1 if i == 2 else 0 for i in range(22))
    assert matvec(inv.matrix, v1p) == tuple(1 if i == 4 else 0 for i in range(22))
    assert not inv.fixes(v1p)


def test_involution_construction_validates():
    lam = k3_lattice()
    bad = [[1 if i == j else 0 for j in range(22)] for i in range(22)]
    bad[0][1] = 1  # shear: squares to I only if nilpotent part vanishes
    with pytest.raises(ValueError):
        ScaledInvolution(bad, lam.gram)


def test_invariant_sublattice_invariants():
    lam = k3_lattice()
    inv = build_vartheta(lam)
    fixed, basis = invariant_sublattice(lam, inv)
    assert fixed.rank == 10
    assert fixed.determinant() == -1024
    assert fixed.signature() == (1, 9)
    assert fixed.all_entries_even()
    for vec in basis:
        assert inv.fixes(vec)
    assert is_primitive_sublattice(basis, 22)


def test_invariant_sublattice_matches_model():
    lam = k3_lattice()
    inv = build_vartheta(lam)
    _, basis = invariant_sublattice(lam, inv)
    model = model_invariant_basis()
    # same sublattice of the ambient lattice, two different bases
    assert same_row_lattice(basis, model)
    # the model basis realizes the expected Gram exactly
    gram = tuple(
        tuple(sum(u[i] * lam.gram[i][j] * v[j] for i in range(22) for j in range(22))
              for v in model)
        for u in model)
    assert gram == u2_e8m2_model().gram


def test_u2_e8m2_model_invariants():
    model = u2_e8m2_model()
    assert model.rank == 10
    assert model.determinant() == -1024
    assert model.signature() == (1, 9)


def test_gram_validation():
    with pytest.raises(ValueError, match="^gram matrix is not symmetric$"):
        LatticeGram(((0, 1), (2, 0)))
    with pytest.raises(ValueError, match="^gram matrix is not square$"):
        LatticeGram(gram=((0, 1),))


@pytest.mark.parametrize("entry", [Fraction(1, 2), 2.7])
def test_non_integer_entries_rejected(entry):
    tail = rf" entry {entry} at \(0, 0\) is not an integer$"
    with pytest.raises(ValueError, match="^gram matrix" + tail):
        LatticeGram(((entry,),))
    with pytest.raises(ValueError, match="^involution matrix" + tail):
        ScaledInvolution(((entry,),), ((1,),))


def test_primitivity_detects_index_two():
    # rows (1,1,0) and (0,2,0) span index-2 inside their saturation
    assert not is_primitive_sublattice([(1, 1, 0), (0, 2, 0)], 3)
    assert is_primitive_sublattice([(1, 1, 0), (0, 1, 0)], 3)
