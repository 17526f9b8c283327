from fractions import Fraction
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ulrichcert.cohomology import section_basis
from ulrichcert.fields import QQ, PrimeField
from ulrichcert import groebner
from ulrichcert.groebner import (_BOUND, GroebnerBasis, _echelon, _first_divisor,
                                 _hilbert_numerator, _k_numerator, _layout, _lcm, _minimalize,
                                 _monic, _pack, _poly, _reduce, _terms, _unpack, buchberger,
                                 hilbert_degree_codim, normal_form, s_polynomial)
from ulrichcert.kummer import all_node_points
from ulrichcert.labels import NODE_LABELS
from ulrichcert.linalg import rank
from ulrichcert.polynomials import PolyRing, grevlex_key, monomial_basis, partial_derivatives

GF = PrimeField(32003)
R2 = PolyRing(("x", "y"), GF)
R4 = PolyRing(("X", "Y", "Z", "W"), GF)

X2Y2 = R2.poly({(2, 0): 1, (0, 2): 1})
XY = R2.poly({(1, 1): 1})


def test_normal_form_membership():
    x = R2.variable(0)
    xsq = R2.poly({(2, 0): 1})
    assert normal_form(xsq, [x]).is_zero()


def test_normal_form_no_reduction():
    x, y = R2.variable(0), R2.variable(1)
    assert normal_form(y, [x]) == y


def test_normal_form_of_generator_is_zero():
    gb = buchberger([X2Y2, XY])
    assert normal_form(X2Y2, gb).is_zero()


def test_buchberger_principal_ideal():
    x = R2.variable(0)
    gb = buchberger([x])
    assert gb.generators == (x,)


def test_buchberger_adds_y_cubed():
    gb = buchberger([X2Y2, XY])
    y3 = R2.poly({(0, 3): 1})
    assert y3 in gb.generators
    assert set(gb.leading_monomials()) == {(2, 0), (1, 1), (0, 3)}
    # s-pair that produced it
    assert normal_form(s_polynomial(X2Y2, XY), [X2Y2, XY]) == y3


def test_reduced_basis_unique_under_generator_order():
    gens = [X2Y2, XY]
    expected = buchberger(gens).generators
    for perm in itertools.permutations(gens):
        assert buchberger(list(perm)).generators == expected


def ideal_membership(f, gens) -> bool:
    """True iff f lies in the ideal generated by gens."""
    return normal_form(f, buchberger(gens)).is_zero()


def test_ideal_membership_examples():
    x, y = R2.variable(0), R2.variable(1)
    assert ideal_membership(x * y, [x])
    assert not ideal_membership(y, [x])


def test_quartic_in_its_singular_ideal(quartic):
    gens = [quartic] + partial_derivatives(quartic)
    assert ideal_membership(quartic, gens)


def test_hilbert_hyperplane():
    gb = buchberger([R4.variable(0)])
    assert hilbert_degree_codim(gb) == (1, 1)


def test_hilbert_x2_y():
    gb = buchberger([R4.poly({(2, 0, 0, 0): 1}), R4.variable(1)])
    assert hilbert_degree_codim(gb) == (2, 2)


def test_hilbert_requires_homogeneous():
    inhom = R4.poly({(1, 0, 0, 0): 1, (0, 0, 0, 0): 1})
    gb = buchberger([inhom])
    with pytest.raises(ValueError):
        hilbert_degree_codim(gb)


def test_singular_locus_codim_and_degree(quartic):
    gens = [quartic] + partial_derivatives(quartic)
    gb = buchberger(gens)
    assert hilbert_degree_codim(gb) == (3, 16)


def test_empty_groebner_basis_is_rejected():
    with pytest.raises(ValueError, match="no generators"):
        hilbert_degree_codim(GroebnerBasis(()))


@st.composite
def monomial_ideals(draw):
    """A variable count from 2 to 4 and up to six monomials in that many
    variables, each exponent at most 3."""
    nvars = draw(st.integers(2, 4))
    return nvars, draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), max_size=6))


@given(monomial_ideals())
def test_hilbert_numerator_counts_standard_monomials(ideal):
    """N(t)/(1-t)^n, expanded, counts the monomials of each degree 0..8 that
    no generator divides, both from a fresh subproblem memo and from the
    per-ideal cache."""
    nvars, mons = ideal
    lts = _minimalize(mons)
    memo = {}
    numerator = _k_numerator(lts, memo)
    assert _hilbert_numerator(lts) == numerator == _k_numerator(lts, memo)
    for d in range(9):
        series = sum(c * math.comb(d - j + nvars - 1, nvars - 1) for j, c in numerator if j <= d)
        standard = sum(not any(all(a <= b for a, b in zip(g, m)) for g in mons)
                       for m in monomial_basis(d, nvars))
        assert series == standard


def test_seeded_point_ideals_have_codim_three_and_degree_k(gf, curve):
    """280 vanishing ideals of 4 to 10 nodes, cut out by cubics (seed 11),
    give (3, k), and the numerator cache keeps one entry per leading-term
    ideal."""
    points = all_node_points(curve, gf)
    labels = list(points)
    rng = random.Random(11)
    _hilbert_numerator.cache_clear()
    ideals = set()
    for k in range(4, 11):
        for _ in range(40):
            gb = buchberger(section_basis(3, [points[lab] for lab in rng.sample(labels, k)], R4))
            assert hilbert_degree_codim(gb) == (3, k)
            ideals.add(_minimalize(gb.leading_monomials()))
    assert _hilbert_numerator.cache_info().currsize == len(ideals)


FLAT_MEMORY_PROBE = """
import sys
from ulrichcert.cohomology import section_basis
from ulrichcert.fields import PrimeField
from ulrichcert.groebner import buchberger, hilbert_degree_codim
from ulrichcert.kummer import all_node_points, default_curve, quartic_ring
gf = PrimeField(32003)
points = list(all_node_points(default_curve(), gf).values())
ring = quartic_ring(gf)
subsets = [points[:k] for k in range(4, 11)] + [points[-k:] for k in range(4, 11)]
def one_round():
    for pts in subsets:
        assert hilbert_degree_codim(buchberger(section_basis(3, pts, ring))) == (3, len(pts))
for _ in range(20):
    one_round()
before = sys.getallocatedblocks()
for _ in range(100):
    one_round()
print(sys.getallocatedblocks() - before)
"""


def test_point_ideal_memory_stays_flat():
    """A long run of point ideals holds no more memory blocks after warm-up:
    no tuple built per op lands on a free list it is never taken from, and
    the Hilbert cache is full after the first round. Run in a fresh process,
    so that the rest of the suite does not disturb the count."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", FLAT_MEMORY_PROBE],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 100


def test_vanishing_ideal_of_node_subsets(gf, curve):
    """Point sets cut out by degree slices have codim 3 and degree k.

    The slice degree must be at least the regularity of the point set; the
    six nodes on a trope plane lie on a conic, which pushes it up.
    """
    points = all_node_points(curve, gf)
    labels = list(points)
    rng = random.Random(7)
    cases = [
        (labels[:1], 1),
        (labels[:2], 2),
        (rng.sample(labels, 3), 2),
        (rng.sample(labels, 5), 3),
        ([(0,), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6)], 4),
    ]
    for subset, slice_degree in cases:
        k = len(subset)
        pts = [points[lab] for lab in subset]
        gens = section_basis(slice_degree, pts, R4)
        gb = buchberger(gens)
        assert hilbert_degree_codim(gb) == (3, k)


# ---------------------------------------------------------------------------
# randomized property suites
# ---------------------------------------------------------------------------

def random_poly(rng, ring, max_degree, homogeneous_degree=None, max_terms=4):
    terms = {}
    nv = ring.nvars
    for _ in range(rng.randint(1, max_terms)):
        if homogeneous_degree is None:
            exps = [rng.randint(0, max_degree) for _ in range(nv)]
            while sum(exps) > max_degree:
                exps[rng.randrange(nv)] = 0
        else:
            exps = [0] * nv
            for _ in range(homogeneous_degree):
                exps[rng.randrange(nv)] += 1
        terms[tuple(exps)] = rng.randint(1, 32002)
    return ring.poly(terms)


def test_buchberger_criterion_post_hoc():
    """Every S-polynomial of a returned basis reduces to zero against it."""
    rng = random.Random(2024)
    for _ in range(40):
        gens = [random_poly(rng, R2, 3) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        for f, g in itertools.combinations(gb.generators, 2):
            assert normal_form(s_polynomial(f, g), gb).is_zero()


def test_degree_slice_equivalence():
    """normalForm(f) == 0 iff f lies in the degree-d span of generator multiples."""
    rng = random.Random(9)
    for _ in range(12):
        gens = [random_poly(rng, R4, 0, homogeneous_degree=rng.randint(1, 2))
                for _ in range(2)]
        gb = buchberger(gens)
        for d in range(1, 5):
            mons_d = monomial_basis(d, 4)
            index = {m: i for i, m in enumerate(mons_d)}
            span_rows = []
            for g in gens:
                gdeg = g.total_degree()
                if gdeg > d:
                    continue
                for m in monomial_basis(d - gdeg, 4):
                    shifted = g * R4.poly({m: 1})
                    row = [0] * len(mons_d)
                    for mon, c in shifted.terms.items():
                        row[index[mon]] = c
                    span_rows.append(row)
            base_rank = rank(span_rows, len(mons_d), GF) if span_rows else 0
            for _ in range(5):
                f = random_poly(rng, R4, 0, homogeneous_degree=d)
                row = [0] * len(mons_d)
                for mon, c in f.terms.items():
                    row[index[mon]] = c
                in_span = rank(span_rows + [row], len(mons_d), GF) == base_rank \
                    if span_rows else all(v == 0 for v in row)
                assert in_span == normal_form(f, gb).is_zero()


# ---------------------------------------------------------------------------
# reference reducer: the plain scan over exponent tuples, with no divisor memo
# ---------------------------------------------------------------------------

def reference_remainder(f, gens) -> dict:
    """Remainder of f by gens, scanning for the grevlex-largest remaining term
    and for the first generator whose leading monomial divides it."""
    domain = f.ring.domain
    basis = []
    for g in gens:
        lm = max(g.terms, key=grevlex_key)
        inv = domain.inv(g.terms[lm])
        basis.append((lm, {m: domain.coerce(inv * c) for m, c in g.terms.items()}))
    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        for lm, g in basis:
            if all(x <= y for x, y in zip(lm, m)):
                shift = tuple(x - y for x, y in zip(m, lm))
                for gm, gc in g.items():
                    if gm != lm:
                        mm = tuple(x + y for x, y in zip(gm, shift))
                        v = domain.coerce(work.get(mm, 0) - c * gc)
                        if v:
                            work[mm] = v
                        else:
                            work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return remainder


def _monic_poly(f):
    """(leading monomial, f scaled to leading coefficient 1)."""
    lm = max(f.terms, key=grevlex_key)
    inv = f.ring.domain.inv(f.terms[lm])
    return lm, f.ring.poly({m: inv * c for m, c in f.terms.items()})


def reference_basis(gens) -> tuple:
    """Reduced Groebner basis by the textbook loop over exponent tuples.

    Each input is replaced by its remainder by the inputs kept before it, and
    dropped when that is zero; then every pair not excluded by the product
    criterion is reduced by reference_remainder, the lowest lcm first, and the
    result is minimalized and inter-reduced.
    """
    basis = []
    for g in gens:
        r = reference_remainder(g, [p for _, p in basis])
        if r:
            basis.append(_monic_poly(g.ring.poly(r)))
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        pairs.sort(key=lambda p: grevlex_key(tuple(map(max, basis[p[0]][0], basis[p[1]][0]))))
        i, j = pairs.pop(0)
        (lmf, f), (lmg, g) = basis[i], basis[j]
        lcm = tuple(map(max, lmf, lmg))
        if lcm == tuple(x + y for x, y in zip(lmf, lmg)):
            continue
        ring = f.ring
        s = (f * ring.poly({tuple(x - y for x, y in zip(lcm, lmf)): 1})
             - g * ring.poly({tuple(x - y for x, y in zip(lcm, lmg)): 1}))
        h = reference_remainder(s, [p for _, p in basis])
        if h:
            basis.append(_monic_poly(ring.poly(h)))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    minimal = []
    for lm, g in sorted(basis, key=lambda pair: grevlex_key(pair[0])):
        if not any(all(x <= y for x, y in zip(other, lm)) for other, _ in minimal):
            minimal.append((lm, g))
    return tuple(
        _monic_poly(g.ring.poly(reference_remainder(
            g, [p for k, (_, p) in enumerate(minimal) if k != i])))[1]
        for i, (_, g) in enumerate(minimal))


def random_homogeneous(rng, ring, degree):
    domain = ring.domain
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * ring.nvars
        for _ in range(degree):
            exps[rng.randrange(ring.nvars)] += 1
        c = rng.randint(1, 100)
        terms[tuple(exps)] = Fraction(c, rng.randint(1, 6)) if domain is QQ else c
    return ring.poly(terms)


def random_ideals():
    """Seeded homogeneous ideals in 2 and 3 variables over GF(101) and Q."""
    rng = random.Random(1701)
    for domain in (PrimeField(101), QQ):
        for names in (("x", "y"), ("x", "y", "z")):
            ring = PolyRing(names, domain)
            for _ in range(8):
                gens = [random_homogeneous(rng, ring, rng.randint(1, 3))
                        for _ in range(rng.randint(2, 3))]
                probes = [random_homogeneous(rng, ring, d) for d in (2, 3, 4)]
                yield gens, probes


def test_normal_form_matches_reference_reducer():
    for gens, probes in random_ideals():
        gb = buchberger(gens)
        for f in probes:
            assert normal_form(f, gens).terms == reference_remainder(f, gens)
            assert normal_form(f, gb).terms == reference_remainder(f, gb.generators)


def test_buchberger_output_passes_reference_criterion():
    """The reference reducer sends every S-polynomial of the output and every
    input generator to zero."""
    for gens, _ in random_ideals():
        gb = buchberger(gens).generators
        for f, g in itertools.combinations(gb, 2):
            assert reference_remainder(s_polynomial(f, g), gb) == {}
        for g in gens:
            assert reference_remainder(g, gb) == {}


def test_divisor_memo_rescans_after_the_basis_grows():
    """y^3 has no divisor among (x^2+y^2, xy); once y^3 is appended it has one."""
    layout = _layout(2)
    guard = layout[1]
    basis = [_monic(_pack(X2Y2.terms, layout), GF), _monic(_pack(XY.terms, layout), GF)]
    memo = {}
    y3 = _pack({(0, 3): 1}, layout)
    (packed_y3,) = y3
    assert _reduce(y3, basis, GF, guard, memo) == y3
    assert memo[packed_y3] == (None, 2)
    basis.append(_monic(y3, GF))
    assert _reduce(y3, basis, GF, guard, memo) == {}
    assert memo[packed_y3] == (2, 3)
    assert buchberger([X2Y2, XY]).generators == (XY, X2Y2, R2.poly({(0, 3): 1}))


def test_buchberger_keeps_no_state_between_calls(gf, curve):
    points = list(all_node_points(curve, gf).values())[:6]
    first = buchberger([X2Y2, XY]).generators
    buchberger(section_basis(3, points, R4))
    assert buchberger([X2Y2, XY]).generators == first


# ---------------------------------------------------------------------------
# packed monomials and inter-reduced input
# ---------------------------------------------------------------------------

def _packed(m, layout) -> int:
    (p,) = _pack({m: 1}, layout)
    return p


# two monomials of up to five variables with exponents this small sum to a
# degree below the packing bound
EXPONENT = (_BOUND - 1) // 10


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, EXPONENT)] * n), min_size=3, max_size=3)))
def test_packing_matches_exponent_tuples(monomials):
    a, b, c = monomials
    n = len(a)
    layout = _layout(n)
    guard = layout[1]
    pa, pb = _packed(a, layout), _packed(b, layout)
    ac = tuple(x + y for x, y in zip(a, c))
    assert _unpack(pa, n) == a and _unpack(pb, n) == b
    assert (pa < pb) == (grevlex_key(a) < grevlex_key(b))
    assert (pa == pb) == (a == b)
    assert (_first_divisor(pb, [(pa, [])], guard, {}) == 0) == all(x <= y for x, y in zip(a, b))
    assert _first_divisor(_packed(ac, layout), [(pa, [])], guard, {}) == 0
    assert pa + _packed(c, layout) == _packed(ac, layout)
    assert _lcm(pa, pb, layout) == _packed(tuple(map(max, a, b)), layout)


def test_packing_bound_is_checked():
    x = R2.variable(0)
    edge = R2.poly({(_BOUND - 1, 0): 1})
    assert buchberger([edge]).generators == (edge,)
    assert normal_form(edge, [x]).is_zero()
    with pytest.raises(ValueError, match=rf"\({_BOUND}, 0\)"):
        buchberger([R2.poly({(_BOUND, 0): 1})])
    big = R2.poly({(40000, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError, match=r"\(40000, 0\)"):
        buchberger([big])
    with pytest.raises(ValueError, match=r"\(40000, 0\)"):
        normal_form(big, [x])
    with pytest.raises(ValueError, match=r"\(40000, 0\)"):
        normal_form(x, [big])
    # each generator packs, but the lcm of their leading monomials does not
    with pytest.raises(ValueError, match=r"\(20000, 20000\)"):
        buchberger([R2.poly({(20000, 1): 1}), R2.poly({(1, 20000): 1})])


def _inter_reduction_cases():
    """Inputs with repeated leading monomials, a scalar multiple, a new leading
    monomial that divides an earlier one, and non-homogeneous sets."""
    for domain in (PrimeField(101), QQ):
        r2 = PolyRing(("x", "y"), domain)
        x, y = r2.variable(0), r2.variable(1)
        yield [x * x + y * y, x * x + x * y, x * x + x * y * 3 + y * y]
        yield [x * y + y * y, (x * y + y * y) * 5, x * x + y * y]
        yield [x * x * y + y * y * y, x * y + y * y]
        yield [x * x + y + r2.poly({(0, 0): 1}), x * y - x, y * y + x * 2]
        r3 = PolyRing(("x", "y", "z"), domain)
        x, y, z = (r3.variable(i) for i in range(3))
        half = r3.poly({(0, 0, 0): Fraction(1, 2)})
        yield [x * y + z * z, x * y + x * z, x * y - y * z + z * z, (x * y + z * z) * 7]
        yield [x * x * z + y * y * z, x * z - y * z, y * y + x * z]
        yield [x * x + y * z + half, x * y - z, y * y * z + x + half * 3]


def test_chain_criterion_skips_only_pairs_whose_partners_left_the_queue():
    """The leading monomials xy, yz, xz pairwise have lcm xyz, which the
    third divides; a chain criterion that ignored the queue would skip all
    three pairs and miss z^3."""
    ring = PolyRing(("x", "y", "z"), PrimeField(101))
    x, y, z = (ring.variable(i) for i in range(3))
    gens = [x * y + z * z, y * z + z * z, x * z + z * z]
    assert buchberger(gens).generators == reference_basis(gens)
    assert ring.poly({(0, 0, 3): 1}) in buchberger(gens).generators


@pytest.mark.parametrize("gens", list(_inter_reduction_cases()))
def test_inter_reduced_input_matches_reference_basis(gens):
    expected = reference_basis(gens)
    for perm in itertools.permutations(gens):
        assert buchberger(list(perm)).generators == expected


def test_seeded_point_ideals_match_reference_basis(gf, curve):
    """70 vanishing ideals of 4 to 10 nodes, cut out by cubics (seed 1)."""
    points = all_node_points(curve, gf)
    labels = list(points)
    rng = random.Random(1)
    for k in range(4, 11):
        for _ in range(10):
            gens = section_basis(3, [points[lab] for lab in rng.sample(labels, k)], R4)
            assert buchberger(gens).generators == reference_basis(gens)


def test_seeded_point_ideals_start_from_their_cubic_slice(gf, curve):
    """Buchberger's degree-3 part of the 70 seeded point ideals is the reduced
    row echelon form of their cubic slice, which the kernel computes from
    section_basis before it forms any pair: every form is monic and holds no
    other form's leading monomial."""
    points = all_node_points(curve, gf)
    labels = list(points)
    layout = _layout(4)
    rng = random.Random(1)
    for k in range(4, 11):
        for _ in range(10):
            sections = section_basis(3, [points[lab] for lab in rng.sample(labels, k)], R4)
            rows = _echelon([_pack(f.terms, layout) for f in sections], gf)
            echelon = [_poly(R4, _terms(e, gf)) for e in rows]
            leading = [f.leading_monomial() for f in echelon]
            for f, lm in zip(echelon, leading):
                assert f.terms[lm] == 1
                assert not any(other in f.terms for other in leading if other != lm)
            mons = monomial_basis(3, 4)
            span = [[f.terms.get(m, 0) for m in mons] for f in sections]
            assert rank(span + [[f.terms.get(m, 0) for m in mons] for f in echelon],
                        len(mons), gf) == len(sections) == len(echelon)
            cubics = [g for g in buchberger(sections).generators if g.total_degree() == 3]
            assert [g.terms for g in cubics] == [f.terms for f in echelon]


def test_rows_of_two_degrees_are_inter_reduced_without_an_s_pair():
    """x and y^3 + xy have coprime leading monomials, so no S-pair adds a
    generator, and the echelon form leaves the tail xy, which is not x; only
    the final pass, run because the leading monomials have two degrees,
    clears it."""
    ring = PolyRing(("x", "y"), PrimeField(101))
    x, y = ring.variable(0), ring.variable(1)
    gens = [x, y * y * y + x * y]
    assert buchberger(gens).generators == reference_basis(gens) == (x, y * y * y)


def test_s_polynomial_rejects_a_zero_input():
    with pytest.raises(ValueError, match="zero polynomial has no leading monomial"):
        s_polynomial(R2.zero(), R2.variable(0))
    with pytest.raises(ValueError, match="zero polynomial has no leading monomial"):
        s_polynomial(R2.variable(0), R2.zero())


def test_s_polynomial_rejects_polynomials_of_different_rings():
    other = PolyRing(("x", "y"), PrimeField(103))
    with pytest.raises(ValueError, match="live in different rings"):
        s_polynomial(PolyRing(("x", "y"), PrimeField(101)).variable(0), other.variable(0))


def test_s_polynomial_is_normalised():
    """The tails of x + y and x + y + 2z cancel in y and leave -2z, which
    GF(101) stores as 99z."""
    ring = PolyRing(("x", "y", "z"), PrimeField(101))
    x, y, z = (ring.variable(i) for i in range(3))
    assert s_polynomial(x + y, x + y + z * 2).terms == {(0, 0, 1): 99}


def test_normal_form_checks_the_ring_of_every_basis_element():
    ring = PolyRing(("x", "y"), PrimeField(101))
    x, y = ring.variable(0), ring.variable(1)
    for other in (PolyRing(("x", "y", "z"), PrimeField(101)).variable(2),
                  PolyRing(("x", "y"), PrimeField(103)).variable(1)):
        with pytest.raises(ValueError, match="polynomial and basis live in different rings"):
            normal_form(x * y + y * y, [x * x, other])


def test_final_pass_runs_only_for_two_degrees_or_an_appended_generator(
        gf, curve, quartic, monkeypatch):
    """The cubics through four nodes are one degree and need no S-pair, so
    their echelon rows are returned as they are; through six nodes an S-pair
    appends a generator, and x, y^3 + xy and the Kummer quartic with its
    cubic partials have two degrees, so each of those runs the final pass
    once."""
    calls = []
    final_pass = groebner._reduced_basis
    monkeypatch.setattr(groebner, "_reduced_basis",
                        lambda *args: calls.append(args) or final_pass(*args))
    points = all_node_points(curve, gf)
    for k, expected in ((4, 0), (6, 1)):
        calls.clear()
        buchberger(section_basis(3, [points[lab] for lab in NODE_LABELS[:k]], R4))
        assert len(calls) == expected, k
    ring = PolyRing(("x", "y"), PrimeField(101))
    x, y = ring.variable(0), ring.variable(1)
    for gens in ([x, y * y * y + x * y], [quartic] + partial_derivatives(quartic)):
        calls.clear()
        buchberger(gens)
        assert len(calls) == 1


def test_appended_generator_reduces_an_earlier_tail():
    """The pair (xy, x^2 + y^2) appends y^3, which divides the tail of the
    input z^5 + y^3; the final pass must reduce that tail to leave z^5."""
    ring = PolyRing(("x", "y", "z"), PrimeField(101))
    x, y = ring.variable(0), ring.variable(1)
    gens = [x * y, x * x + y * y, ring.poly({(0, 0, 5): 1, (0, 3, 0): 1})]
    expected = reference_basis(gens)
    assert ring.poly({(0, 0, 5): 1}) in expected
    for perm in itertools.permutations(gens):
        assert buchberger(list(perm)).generators == expected


@st.composite
def small_ideals(draw):
    """Up to four nonzero polynomials of degree at most 3 in 2 or 3 variables
    over GF(101)."""
    nvars = draw(st.integers(2, 3))
    ring = PolyRing(("x", "y", "z")[:nvars], PrimeField(101))
    monomials = [m for d in range(4) for m in monomial_basis(d, nvars)]
    poly = st.dictionaries(st.sampled_from(monomials), st.integers(1, 100),
                           min_size=1, max_size=4).map(ring.poly)
    return draw(st.lists(poly, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(small_ideals())
def test_small_random_ideals_match_reference_basis(gens):
    assert buchberger(gens).generators == reference_basis(gens)
