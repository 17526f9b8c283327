from fractions import Fraction
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ulrichcert.fields import QQ, PrimeField
from ulrichcert.linalg import (ScaledInvolution, determinant, echelon,
                               hermite_normal_form, hnf_contains, integer_kernel, kernel_basis,
                               matmul, matvec, rank, signature)

GF = PrimeField(32003)
GF5 = PrimeField(5)


def test_kernel_of_identity_is_empty():
    rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert kernel_basis(rows, 4, GF) == []


def test_kernel_of_row_of_ones():
    basis = kernel_basis([[1, 1]], 2, QQ)
    assert len(basis) == 1
    assert basis[0] == [Fraction(-1), Fraction(1)]


def test_kernel_of_three_unit_points():
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    basis = kernel_basis(rows, 4, GF)
    assert len(basis) == 1
    assert basis[0] == [0, 0, 0, 1]


def test_kernel_of_empty_matrix_is_full():
    assert len(kernel_basis([], 4, QQ)) == 4


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=5, max_size=5),
                min_size=1, max_size=6))
def test_rank_plus_nullity(rows):
    assert rank(rows, 5, GF) + len(kernel_basis(rows, 5, GF)) == 5


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_kernel_vectors_annihilate(rows):
    for vec in kernel_basis(rows, 4, QQ):
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0


@st.composite
def product_operands(draw):
    """(a, b, v): an n x k and a k x m matrix and a k-vector, all int or all
    Fraction entries."""
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    entry = draw(st.sampled_from([st.integers(-50, 50),
                                  st.fractions(min_value=-9, max_value=9, max_denominator=7)]))
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=k, max_size=k))
    v = draw(st.lists(entry, min_size=k, max_size=k))
    return a, b, v


@given(product_operands())
def test_matmul_and_matvec_match_triple_loop(operands):
    a, b, v = operands
    n, k, m = len(a), len(b), len(b[0])
    product = [[0] * m for _ in range(n)]
    image = [0] * n
    for i in range(n):
        for j in range(k):
            image[i] += a[i][j] * v[j]
            for c in range(m):
                product[i][c] += a[i][j] * b[j][c]
    assert matmul(a, b) == tuple(map(tuple, product))
    assert matvec(a, v) == tuple(image)


@st.composite
def gf5_matrices(draw):
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
                         max_size=4))
    return rows, ncols


@given(gf5_matrices())
def test_kernel_basis_matches_brute_force_over_gf5(matrix):
    """The oracle lists all 5**ncols vectors and does no elimination. Column c
    is free iff it is a combination of the columns left of it, that is, iff c
    is the last nonzero coordinate of some kernel vector; a kernel vector is
    fixed by its free coordinates, so the free-column pattern pins the basis."""
    rows, ncols = matrix
    kernel = {x for x in itertools.product(range(5), repeat=ncols)
              if all(sum(a * b for a, b in zip(row, x)) % 5 == 0 for row in rows)}
    free = sorted({max(c for c in range(ncols) if x[c]) for x in kernel if any(x)})
    basis = kernel_basis(rows, ncols, GF5)
    assert len(kernel) == 5 ** len(basis)
    assert rank(rows, ncols, GF5) + len(basis) == ncols
    assert len(basis) == len(free)
    for fc, vec in zip(free, basis):
        assert tuple(vec) in kernel
        assert [vec[c] for c in free] == [int(c == fc) for c in free]


def test_echelon_of_tuple_keyed_rows():
    """A duplicate row and a combination of earlier rows cancel to zero; the
    third row's pivot is cleared from the first row's tail."""
    r1 = {(2, 0): 2, (1, 1): 4, (0, 2): 2}
    r3 = {(1, 1): 1, (0, 2): 3}
    r4 = {(2, 0): 2, (1, 1): 2, (0, 2): -4}   # r1 - 2 r3
    rows = echelon([r1, dict(r1), r3, r4], QQ)
    assert rows == {(2, 0): {(0, 2): Fraction(-5)}, (1, 1): {(0, 2): Fraction(3)}}
    assert all(type(c) is Fraction for tail in rows.values() for c in tail.values())
    assert not any(pivot in tail for tail in rows.values() for pivot in rows)


def integer_span_contains(generators, target) -> bool:
    """True iff target lies in the integer span of the generator rows."""
    generators = list(generators)
    if not generators:
        raise ValueError("empty generator list")
    hnf, pivots = hermite_normal_form(generators)
    return hnf_contains(hnf, pivots, target)


def test_hermite_membership_examples():
    assert integer_span_contains([(2, 0), (0, 2)], (2, 2))
    assert not integer_span_contains([(2, 0), (0, 2)], (1, 1))
    assert integer_span_contains([(1, 0), (0, 1)], (7, -5))


def test_hermite_membership_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^membership target row 0 has 3 entries, not 2$"):
        integer_span_contains([(2, 0)], (1, 1, 1))
    with pytest.raises(ValueError, match=r"^membership target row 0 has 1 entries, not 2$"):
        integer_span_contains([(2, 0)], (2,))
    with pytest.raises(ValueError):
        integer_span_contains([], (1, 1))


def test_hnf_refuses_a_non_integer_entry():
    with pytest.raises(ValueError, match=r"^hnf matrix entry 1/2 at \(0, 0\) is not an integer$"):
        hermite_normal_form([[Fraction(1, 2), 1]])


@pytest.mark.parametrize("entry", [Fraction(1, 2), 2.7])
def test_hnf_contains_refuses_a_non_integer_target(entry):
    hnf, pivots = hermite_normal_form([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match=rf"^membership target entry {entry} at \(0, 0\) "
                                         "is not an integer$"):
        hnf_contains(hnf, pivots, (entry, 0))


def test_hnf_contains_refuses_a_longer_target():
    """``zip`` with the HNF rows would drop the 5 and report membership."""
    with pytest.raises(ValueError, match=r"^membership target row 0 has 3 entries, not 2$"):
        hnf_contains(*hermite_normal_form([[1, 0]]), [1, 0, 5])


def test_integer_kernel_refuses_a_short_row():
    with pytest.raises(ValueError, match=r"^kernel matrix row 1 has 1 entries, not 2$"):
        integer_kernel([[1, 2], [3]], 2)


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=4),
    st.lists(st.integers(-6, 6), min_size=n, max_size=n))))
def test_hnf_membership_matches_unchanged_hnf(case):
    """v lies in the integer row span iff appending it leaves the HNF, a
    canonical form of that span, unchanged."""
    rows, v = case
    hnf = hermite_normal_form(rows)
    assert hnf_contains(*hnf, v) == (hermite_normal_form(rows + [v]) == hnf)


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=2, max_size=4),
       st.permutations(range(4)),
       st.integers(-3, 3))
def test_hnf_invariant_under_row_operations(rows, perm, mult):
    hnf_a = hermite_normal_form(rows)
    shuffled = [rows[i] for i in perm if i < len(rows)]
    if len(shuffled) != len(rows):
        shuffled = rows[::-1]
    if len(shuffled) >= 2:
        shuffled = [list(shuffled[0])] + [
            [a + mult * b for a, b in zip(shuffled[1], shuffled[0])]] + [
            list(r) for r in shuffled[2:]]
    hnf_b = hermite_normal_form(shuffled)
    assert hnf_a == hnf_b


def test_hnf_pivots_positive_and_reduced():
    hnf, pivots = hermite_normal_form([[4, 1], [6, 1]])
    for row, c in zip(hnf, pivots):
        assert row[c] > 0
    # entries above each pivot lie in [0, pivot)
    for r, c in enumerate(pivots):
        for above in range(r):
            assert 0 <= hnf[above][c] < hnf[r][c]


def test_integer_kernel_is_saturated():
    basis = integer_kernel([[1, 1, 0], [0, 2, 2]], 3)
    assert len(basis) == 1
    vec = basis[0]
    assert vec[0] + vec[1] == 0 and 2 * vec[1] + 2 * vec[2] == 0
    # primitive: content 1
    from math import gcd
    assert gcd(gcd(abs(vec[0]), abs(vec[1])), abs(vec[2])) == 1


def test_integer_kernel_of_full_rank_map_is_empty():
    assert integer_kernel([[1, 0], [0, 1]], 2) == []


def test_determinant_examples():
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[1, 2], [2, 4]]) == 0


def cofactor_determinant(m):
    """Laplace expansion along the first row, independent of any elimination."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * cofactor_determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices with small entries, often with a zero
    diagonal, and made degenerate by a repeated index about a third of the time."""
    n = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    diagonal = draw(st.lists(st.sampled_from((0, 0, 1, -2)) | entry, min_size=n, max_size=n))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = diagonal[i]
        for j in range(i):
            m[i][j] = m[j][i] = draw(entry)
    if n > 1 and draw(st.integers(0, 2)) == 0:
        # index n-1 repeats index 0, so row n-1 equals row 0
        for i in range(n - 1):
            m[i][n - 1] = m[n - 1][i] = m[i][0]
        m[n - 1][n - 1] = m[0][0]
    return m


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_determinant_matches_cofactor_expansion(m):
    assert determinant(m) == cofactor_determinant(m)


def test_determinant_rejects_non_symmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        determinant([[1, 2], [3, 4]])


def test_scaled_involution_check():
    swap = ((0, 1), (1, 0))
    ScaledInvolution(swap, ((0, 1), (1, 0)), 1)
    doubled = ScaledInvolution(((0, 2), (2, 0)), ((2, 0), (0, 2)), 2)
    assert doubled.fixes((1, 1)) and not doubled.fixes((1, 0))
    assert doubled.fixed_basis() == [(1, 1)]
    with pytest.raises(ValueError, match="not an involution"):
        ScaledInvolution(swap, ((0, 1), (1, 0)), 2)
    with pytest.raises(ValueError, match="intersection form"):
        ScaledInvolution(swap, ((2, 0), (0, -2)), 1)
    with pytest.raises(ValueError, match="wrong shape"):
        ScaledInvolution(((0, 1),), ((0, 1), (1, 0)), 1)
    # the gram matrix is read by the same rule as LatticeGram's
    with pytest.raises(ValueError, match="^gram matrix is not symmetric$"):
        ScaledInvolution(swap, ((0, 1), (2, 0)))
    with pytest.raises(ValueError, match="^gram matrix is not square$"):
        ScaledInvolution(swap, ((0, 1),))
    with pytest.raises(ValueError, match=r"^involution matrix row 1 has 1 entries, not 2$"):
        ScaledInvolution(((0, 1), (1,)), swap)


def test_signature_examples():
    assert signature([[0, 1], [1, 0]]) == (1, 1)
    assert signature([[2, 0], [0, -3]]) == (1, 1)
    assert signature([[-2, 1], [1, -2]]) == (0, 2)
    with pytest.raises(ValueError):
        signature([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(ValueError):
        signature([[1, 1], [1, 1]])  # degenerate


def test_membership_after_hnf_is_deterministic():
    rows = [(3, 1, 2), (1, 4, 0), (0, 5, 1)]
    first = hermite_normal_form(rows)
    second = hermite_normal_form(rows)
    assert first == second
    hnf, pivots = first
    assert hnf_contains(hnf, pivots, [4, 5, 2])
