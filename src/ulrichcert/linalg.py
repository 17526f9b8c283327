"""Exact linear algebra: Gaussian elimination over a field domain, matrix
products, integer Hermite normal form, ``ScaledInvolution`` for lattice
involutions, and one congruence diagonalization for symmetric forms.

Conventions, fixed so that every routine is bit-for-bit deterministic:

* ``echelon`` is the one Gaussian elimination over a field. A row's pivot is
  its largest key, and pivots are scaled to 1. Dense callers key column c as
  -c, so pivots still run left to right.
* Kernel bases come from the reduced row echelon form, one vector per free
  column, free columns in ascending order, with the free coordinate set to 1.
* The Hermite normal form uses the leftmost available pivot column, positive
  pivots, and entries above a pivot reduced into ``[0, pivot)``.
* Integer routines read every matrix and vector through ``integer_matrix``,
  and forms pass ``symmetric_matrix``: a wrong row length, a non-integer entry
  or an asymmetric form is a ``ValueError`` naming the matrix, never truncated.
"""
from __future__ import annotations

from fractions import Fraction
import math
import operator


def echelon(rows, domain) -> dict:
    """Reduced row echelon form of the span of sparse rows, as {pivot: tail}.

    Each row is a dict from ordered keys to scalars, and a row's pivot is its
    largest key with a nonzero entry. The returned rows are monic: the pivot's
    entry 1 is left out of its tail. No tail holds any pivot, so subtracting a
    row from a later input clears exactly that row's pivot and brings in no
    other, and the rows can be subtracted in any order.
    """
    coerce, inv = domain.coerce, domain.inv
    out = {}
    for f in rows:
        f = dict(f)
        get = f.get
        for pivot, tail in out.items():
            c = f.pop(pivot, 0)   # f stays unnormalised until every row is subtracted
            if c:
                for k, rc in tail.items():
                    f[k] = get(k, 0) - c * rc
        f = {k: v for k, c in f.items() if (v := coerce(c))}
        if not f:
            continue
        pivot = max(f)
        s = inv(f.pop(pivot))
        f = {k: coerce(s * c) for k, c in f.items()}
        for tail in out.values():
            c = tail.pop(pivot, 0)
            if c:
                for k, fc in f.items():
                    v = coerce(tail.get(k, 0) - c * fc)
                    if v:
                        tail[k] = v
                    else:
                        del tail[k]
        out[pivot] = f
    return out


def _dense_echelon(rows, ncols, domain) -> dict:
    """``echelon`` of a dense matrix, column c keyed as -c."""
    sparse = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        sparse.append({-c: x for c, x in enumerate(row) if x})
    return echelon(sparse, domain)


def rank(rows, ncols, domain) -> int:
    return len(_dense_echelon(rows, ncols, domain))


def kernel_basis(rows, ncols, domain):
    """Basis of the right null space {x : rows . x = 0}, RREF-normalized.

    The dimension is always ncols minus the rank; no tolerances are involved.
    """
    pivots = _dense_echelon(rows, ncols, domain)
    zero, one = domain.coerce(0), domain.coerce(1)
    basis = []
    for fc in range(ncols):
        if -fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for pivot, tail in pivots.items():
            vec[-pivot] = domain.coerce(-tail.get(-fc, 0))
        basis.append(vec)
    return basis


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m))


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in bt) for row in a)


def matvec(m, v):
    return tuple(sum(map(operator.mul, row, v)) for row in m)


# ---------------------------------------------------------------------------
# Integer lattice routines
# ---------------------------------------------------------------------------

def hermite_normal_form(rows):
    """Row-style HNF of an integer matrix. Returns (hnf_rows, pivot_columns).

    Zero rows are dropped. Row operations are unimodular, so the integer row
    span is preserved exactly.
    """
    mat = [list(row) for row in integer_matrix(rows, "hnf matrix")]
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        while True:
            live = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: (abs(mat[i][c]), i))
            mat[r], mat[i0] = mat[i0], mat[r]
            done = True
            for i in range(r + 1, len(mat)):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c] != 0:
                        done = False
            if done:
                break
        if r < len(mat) and mat[r][c] != 0:
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            for i in range(r):
                q = mat[i][c] // mat[r][c]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
            pivots.append(c)
            r += 1
    return mat[:r], pivots


def hnf_contains(hnf_rows, pivots, target):
    """Membership of an integer vector of the HNF's width in its row span."""
    (t,) = integer_matrix([target], "membership target", len(hnf_rows[0]) if hnf_rows else None)
    for row, c in zip(hnf_rows, pivots):
        q, rem = divmod(t[c], row[c])
        if rem:
            return False
        if q:
            t = [a - q * b for a, b in zip(t, row)]
    return all(x == 0 for x in t)


def integer_kernel(rows, ncols):
    """Basis of the integer right kernel {x in Z^ncols : rows . x = 0}.

    Computed from the HNF of the transpose augmented with an identity block;
    the kernel of a map of free abelian groups is saturated, so the returned
    rows generate the full kernel lattice.
    """
    rows = integer_matrix(rows, "kernel matrix", ncols)
    nrows = len(rows)
    aug = [[row[j] for row in rows] + list(unit) for j, unit in enumerate(identity(ncols))]
    hnf, pivots = hermite_normal_form(aug)
    return [row[nrows:] for row, c in zip(hnf, pivots) if c >= nrows]


def integer_matrix(rows, name, ncols=None):
    """``rows`` as a tuple of int tuples of ``ncols`` entries each (by default
    the first row's count). A row of another length, or an entry that is not
    an integer, raises ``ValueError`` naming ``name`` and the row or entry."""
    out = []
    for i, row in enumerate(map(tuple, rows)):
        ncols = len(row) if ncols is None else ncols
        if len(row) != ncols:
            raise ValueError(f"{name} row {i} has {len(row)} entries, not {ncols}")
        for j, x in enumerate(row):
            try:
                integral = int(x) == x
            except (TypeError, ValueError, OverflowError):
                integral = False
            if not integral:
                raise ValueError(f"{name} entry {x} at ({i}, {j}) is not an integer")
        out.append(tuple(map(int, row)))
    return tuple(out)


def symmetric_matrix(rows, name):
    """``rows`` itself, or ``ValueError`` if ``name`` is not square or not symmetric."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"{name} is not square")
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise ValueError(f"{name} is not symmetric")
    return rows


class ScaledInvolution:
    """An involution M / k of Z^n preserving the symmetric form ``gram`` G,
    kept as the integer ``matrix`` M and ``scale`` k; checked as M M = k^2 I
    and M^T G M = k^2 G."""

    __slots__ = ("matrix", "gram", "scale")

    def __init__(self, matrix, gram, scale=1):
        gram = symmetric_matrix(integer_matrix(gram, "gram matrix"), "gram matrix")
        n = len(gram)
        matrix = integer_matrix(matrix, "involution matrix", n)
        if len(matrix) != n:
            raise ValueError("involution matrix has wrong shape")
        square = scale * scale
        if matmul(matrix, matrix) != tuple(tuple(square * x for x in row) for row in identity(n)):
            raise ValueError("map is not an involution")
        if matmul(matmul(transpose(matrix), gram), matrix) != tuple(
                tuple(square * x for x in row) for row in gram):
            raise ValueError("map does not preserve the intersection form")
        self.matrix, self.gram, self.scale = matrix, gram, scale

    def fixes(self, v) -> bool:
        """M v = k v, that is, the involution fixes v."""
        return matvec(self.matrix, v) == tuple(self.scale * x for x in v)

    def fixed_basis(self):
        """A basis of the fixed sublattice: the integer kernel of M - kI. An
        integer kernel is saturated, so the sublattice is primitive in Z^n."""
        shifted = [[x - self.scale if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(self.matrix)]
        return [tuple(b) for b in integer_kernel(shifted, len(shifted))]


def _congruence_diagonal(gram):
    """Diagonal of a matrix congruent over the rationals to the symmetric
    matrix ``gram``, or None if the form is degenerate.

    The elimination uses simultaneous row and column operations: adding a
    multiple of one index to another, and swapping two indices. Both keep
    the determinant and the signature, which are then read off the diagonal
    exactly, never by numerics.
    """
    mat = symmetric_matrix([[Fraction(x) for x in row] for row in gram], "matrix")
    n = len(mat)

    def add_row_col(i, j, f):
        # row_i += f * row_j, then col_i += f * col_j
        mat[i] = [a + f * b for a, b in zip(mat[i], mat[j])]
        for r in range(n):
            mat[r][i] += f * mat[r][j]

    def swap_row_col(i, j):
        mat[i], mat[j] = mat[j], mat[i]
        for r in range(n):
            mat[r][i], mat[r][j] = mat[r][j], mat[r][i]

    diagonal = []
    for k in range(n):
        if mat[k][k] == 0:
            j = next((j for j in range(k + 1, n) if mat[j][j] != 0), None)
            if j is not None:
                swap_row_col(k, j)
            else:
                # row k vanishes left of the diagonal, so a zero row is degenerate
                j = next((j for j in range(k + 1, n) if mat[k][j] != 0), None)
                if j is None:
                    return None
                add_row_col(k, j, Fraction(1))
        d = mat[k][k]
        diagonal.append(d)
        for i in range(k + 1, n):
            if mat[i][k] != 0:
                add_row_col(i, k, -mat[i][k] / d)
    return diagonal


def determinant(rows):
    """Exact determinant of a square symmetric integer or rational matrix."""
    diagonal = _congruence_diagonal(rows)
    return Fraction(0) if diagonal is None else math.prod(diagonal, start=Fraction(1))


def signature(gram):
    """Signature (n_plus, n_minus) of a nondegenerate symmetric matrix."""
    diagonal = _congruence_diagonal(gram)
    if diagonal is None:
        raise ValueError("degenerate symmetric form")
    positive = sum(1 for d in diagonal if d > 0)
    return positive, len(diagonal) - positive
