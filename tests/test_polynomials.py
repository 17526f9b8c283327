import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ulrichcert.cohomology import section_basis
from ulrichcert.fields import QQ, PrimeField
from ulrichcert.groebner import buchberger, normal_form, s_polynomial
from ulrichcert.labels import join_terms, split_terms
from ulrichcert.linalg import echelon, kernel_basis
from ulrichcert.polynomials import (PolyRing, ProjectivePoint, format_polynomial,
                                    grevlex_key, monomial_basis, parse_polynomial,
                                    partial_derivatives)

GF = PrimeField(32003)
RING = PolyRing(("X", "Y", "Z", "W"), GF)
RING_Q = PolyRing(("X", "Y", "Z", "W"), QQ)

P23 = (1, 1, -2, -44)
P34 = (1, 0, -4, -65)


def test_parse_and_format_round_trip():
    text = "7056*X^4-2016*X^2*Y^2+144*Y^4"
    f = parse_polynomial(text, RING_Q)
    assert format_polynomial(f) == text
    g = parse_polynomial(text, RING)  # coefficients land in [0, p)
    assert parse_polynomial(format_polynomial(g), RING) == g


def test_join_terms_inverts_split_terms():
    for text in ("3*X^2-Y+Z", "-X", "-1/2*E12+L", "7"):
        assert join_terms(split_terms(text, "sum")) == text
    assert join_terms(["+X", "Y", "-Z"]) == "X+Y-Z"
    assert join_terms([]) == "0"
    assert format_polynomial(RING_Q.zero()) == "0"
    assert format_polynomial(parse_polynomial("-X*Y+1", RING_Q)) == "-X*Y+1"


def test_parse_corpus_shape(quartic):
    assert len(quartic.terms) == 13
    assert quartic.total_degree() == 4
    assert quartic.is_homogeneous()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("X + $", RING)
    with pytest.raises(ValueError):
        parse_polynomial("Q^2", RING)


def test_evaluate_coordinate_extraction():
    x = RING.variable(0)
    assert x.evaluate(ProjectivePoint(GF, P23)) == 1


def test_evaluate_quartic_at_node(quartic):
    assert quartic.evaluate(ProjectivePoint(GF, P23)) == 0


def test_evaluate_direct_substitution():
    f = RING.poly({(2, 0, 0, 0): 1, (0, 2, 0, 0): 1})
    assert f.evaluate(ProjectivePoint(GF, (1, 0, 0, 0))) == 1


def test_partials_of_linear():
    x = RING.variable(0)
    parts = partial_derivatives(x)
    assert parts[0] == RING.poly({(0, 0, 0, 0): 1})
    assert all(p.is_zero() for p in parts[1:])


def test_partials_power_rule():
    f = RING.poly({(4, 0, 0, 0): 1})
    parts = partial_derivatives(f)
    assert parts[0] == RING.poly({(3, 0, 0, 0): 4})
    assert all(p.is_zero() for p in parts[1:])


def test_arithmetic_drops_zeros_in_characteristic_three():
    """Coefficients that vanish mod p leave the polynomial, whichever
    operation made them: a derivative's exponent factor, a scalar, a sum."""
    ring = PolyRing(("X", "Y"), PrimeField(3))
    f = parse_polynomial("X^3+X*Y", ring)
    derivative = f.diff(0)
    assert derivative == ring.variable(1)
    assert len(derivative.terms) == 1
    assert (f * 3).is_zero()
    assert (f + (-f)).is_zero()
    assert f * Fraction(1, 2) == f * 2
    with pytest.raises(TypeError):
        ring.zero() * "x"


def test_all_partials_vanish_at_singular_point(quartic):
    pt = ProjectivePoint(GF, P34)
    assert all(g.evaluate(pt) == 0 for g in partial_derivatives(quartic))


def test_monomial_basis_counts():
    assert len(monomial_basis(1, 4)) == 4
    assert len(monomial_basis(2, 4)) == 10
    assert len(monomial_basis(4, 4)) == 35


def test_monomial_basis_count_formula():
    for d in range(7):
        for n in range(1, 7):
            assert len(monomial_basis(d, n)) == math.comb(d + n - 1, n - 1)


def test_monomial_basis_is_grevlex_descending():
    mons = monomial_basis(3, 4)
    keys = [grevlex_key(m) for m in mons]
    assert keys == sorted(keys, reverse=True)
    assert len(set(mons)) == len(mons)


st_poly_terms = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in range(4))),
    st.integers(-50, 50), min_size=0, max_size=6)


@settings(max_examples=60)
@given(st_poly_terms, st_poly_terms, st.tuples(*(st.integers(0, 40) for _ in range(4))))
def test_evaluate_is_ring_homomorphism(t1, t2, raw_point):
    if all(v == 0 for v in raw_point):
        raw_point = (1, 0, 0, 0)
    f, g = RING.poly(t1), RING.poly(t2)
    pt = ProjectivePoint(GF, raw_point)
    assert (f + g).evaluate(pt) == GF.coerce(f.evaluate(pt) + g.evaluate(pt))
    assert (f * g).evaluate(pt) == GF.coerce(f.evaluate(pt) * g.evaluate(pt))


def _normalised(x, domain) -> bool:
    if domain == QQ:
        return type(x) is Fraction
    return type(x) is int and 0 <= x < domain.p


@settings(max_examples=60)
@given(st.sampled_from((RING, RING_Q)), st_poly_terms, st_poly_terms,
       st.tuples(*(st.integers(-10 ** 6, 10 ** 6) for _ in range(4))),
       st.lists(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=4, max_size=4),
                min_size=1, max_size=4))
def test_arithmetic_results_stay_normalised(ring, t1, t2, point, rows):
    """Zero tests read an element's truthiness, which is exact only while every
    GF(p) element is an int in [0, p) and every rational one a Fraction.

    The Groebner kernel keeps unnormalised sums while it reduces, so its
    results are checked too, on the first three terms of f and g: that keeps
    each Groebner basis within the default deadline."""
    dom = ring.domain
    f, g = ring.poly(t1), ring.poly(t2)
    results = [f + g, f - g, f * g, (f + g) * (f - g)] + [f.diff(i) for i in range(4)]
    f3, g3 = (ring.poly(dict(list(t.items())[:3])) for t in (t1, t2))
    if not f3.is_zero() and not g3.is_zero():
        results += [normal_form(f3, [g3]), s_polynomial(f3, g3)]
        results += buchberger([f3, g3]).generators
    points = list(dict.fromkeys(ProjectivePoint(dom, row) for row in rows
                                if any(dom.coerce(x) for x in row)))
    results += section_basis(2, points, ring)
    for h in results:
        assert all(c and _normalised(c, dom) for c in h.terms.values())
    assert _normalised(f.evaluate(point), dom)
    tails = echelon([dict(enumerate(row)) for row in rows], dom).values()
    assert all(c and _normalised(c, dom) for tail in tails for c in tail.values())
    assert all(_normalised(x, dom) for vec in kernel_basis(rows, 4, dom) for x in vec)


def test_euler_relation_on_quartic(quartic):
    total = quartic.ring.zero()
    for i, part in enumerate(partial_derivatives(quartic)):
        total = total + quartic.ring.variable(i) * part
    assert total == quartic * 4


def test_homogeneous_vanishing_invariant_under_rescaling():
    f = RING_Q.poly({(1, 0, 0, 0): 44, (0, 0, 0, 1): 1})  # 44*X + W, zero at P23
    for scale in (1, 2, Fraction(-7, 3)):
        coords = tuple(scale * Fraction(c) for c in P23)
        assert f.evaluate(ProjectivePoint(QQ, coords)) == 0


def test_projective_point_normalization():
    pt = ProjectivePoint(QQ, (0, 3, 6, -9))
    assert pt.coordinates == (0, 1, 2, -3)
    assert pt == ProjectivePoint(QQ, (0, 1, 2, -3))
    with pytest.raises(ValueError):
        ProjectivePoint(QQ, (0, 0, 0, 0))


def test_evaluate_dimension_mismatch():
    f = RING.variable(0)
    with pytest.raises(ValueError):
        f.evaluate((1, 2, 3))


def test_ring_mismatch_raises():
    f = RING.variable(0)
    g = RING_Q.variable(0)
    with pytest.raises(ValueError):
        f + g


@pytest.mark.parametrize("mon", [(1, 0, 0), (1, -1, 0, 0), (1.5, 0, 0, 0), ("1", 0, 0, 0)],
                         ids=["short", "negative", "float", "string"])
def test_bad_exponent_tuple_rejected(mon):
    """An exponent that is not a nonnegative int is refused, never truncated
    by ``int`` (1.5 and "1" both read as X before)."""
    with pytest.raises(ValueError, match="^bad exponent tuple "):
        RING_Q.poly({mon: 1})
