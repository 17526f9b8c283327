from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ulrichcert import cli, lattices
from ulrichcert.fields import QQ, PrimeField
from ulrichcert.kummer import (Genus2Curve, NodeVerification, all_node_points,
                               load_corpus_quartic, node_point, parse_quartic, read_quartic,
                               sextic_coefficients, verify_node, verify_sixteen_nodes)
from ulrichcert.labels import NODE_LABELS
from ulrichcert.polynomials import ProjectivePoint

# all sixteen node coordinates of the reference curve, by label
EXPECTED_NODES = {
    (0,): (0, 0, 0, 1),
    (1, 2): (1, 0, -1, -50),
    (1, 3): (1, 3, 2, 28),
    (1, 4): (1, -1, -2, -44),
    (1, 5): (1, 4, 3, 6),
    (1, 6): (1, -2, -3, -42),
    (2, 3): (1, 1, -2, -44),
    (2, 4): (1, -3, 2, 28),
    (2, 5): (1, 2, -3, -42),
    (2, 6): (1, -4, 3, 6),
    (3, 4): (1, 0, -4, -65),
    (3, 5): (1, 5, 6, -60),
    (3, 6): (1, -1, -6, -84),
    (4, 5): (1, 1, -6, -84),
    (4, 6): (1, -5, 6, -60),
    (5, 6): (1, 0, -9, -130),
}


def test_sextic_coefficients_of_reference_curve(curve):
    assert sextic_coefficients(curve) == (-36, 0, 49, 0, -14, 0, 1)


def test_sextic_is_monic():
    c = Genus2Curve((5, 7, -1, 2, 9, -4))
    assert sextic_coefficients(c)[6] == 1


def test_sextic_constant_term_vanishes_with_zero_root():
    c = Genus2Curve((0, 1, 2, 3, 4, 5))
    assert sextic_coefficients(c)[0] == 0


def test_repeated_roots_rejected():
    with pytest.raises(ValueError, match="^Weierstrass roots must be pairwise distinct$"):
        Genus2Curve((1, 1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match="^exactly six Weierstrass roots are required$"):
        Genus2Curve((1, 2, 3))
    with pytest.raises(ValueError, match="^Weierstrass roots must be pairwise distinct$"):
        Genus2Curve(roots=(1, Fraction(2, 2), 2, 3, 4, 5))


def test_published_node_coordinates(curve):
    assert node_point(curve, (2, 3)).coordinates == (1, 1, -2, -44)
    assert node_point(curve, (2, 5)).coordinates == (1, 2, -3, -42)
    assert node_point(curve, (3, 4)).coordinates == (1, 0, -4, -65)
    assert node_point(curve, (4, 5)).coordinates == (1, 1, -6, -84)
    assert node_point(curve, (0,)).coordinates == (0, 0, 0, 1)


def test_all_sixteen_node_coordinates(curve):
    points = all_node_points(curve, QQ)
    assert {lab: pt.coordinates for lab, pt in points.items()} == {
        lab: tuple(Fraction(c) for c in coords)
        for lab, coords in EXPECTED_NODES.items()}


def test_node_label_order_symmetry(curve):
    assert node_point(curve, (3, 2)) == node_point(curve, (2, 3))


def test_invalid_label_rejected(curve):
    with pytest.raises(ValueError):
        node_point(curve, (1, 7))
    with pytest.raises(ValueError):
        node_point(curve, (2, 2))


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_node_coordinate_symmetric_in_roots(u, v):
    """The last coordinate formula is symmetric in the two branch roots."""
    if u == v:
        v = u + 1
    pool = [u, v] + [x for x in range(50, 60)]
    c1 = Genus2Curve(tuple(pool[:6]))
    c2 = Genus2Curve((v, u) + tuple(pool[2:6]))
    assert node_point(c1, (1, 2)) == node_point(c2, (1, 2))


def test_mod_p_points_match_rational_reduction(curve, gf):
    """In-field computation agrees with reducing the rational point mod p."""
    p = gf.p
    for label in NODE_LABELS:
        rational = node_point(curve, label, QQ)
        reduced = ProjectivePoint(gf, [gf.coerce(c) for c in rational.coordinates])
        assert node_point(curve, label, gf) == reduced


def test_verify_node_examples(quartic, curve, gf):
    assert verify_node(quartic, node_point(curve, (2, 3), gf))
    assert not verify_node(quartic, ProjectivePoint(gf, (1, 0, 0, 0)))
    double_plane = parse_quartic("X^2", gf)
    assert verify_node(double_plane, ProjectivePoint(gf, (0, 1, 0, 0)))


def test_sixteen_nodes_pass(quartic, curve):
    report = verify_sixteen_nodes(quartic, curve)
    assert report.passed
    assert report.distinct
    assert all(report.node_results.values())
    assert (report.codim, report.degree) == (3, 16)


def test_perturbed_quartic_fails(curve, gf):
    perturbed = parse_quartic("X^4", gf) + load_corpus_quartic(gf)
    report = verify_sixteen_nodes(perturbed, curve)
    assert not report.passed
    assert not all(report.node_results.values())
    assert (report.codim, report.degree) == (3, 1)


def test_smooth_fermat_quartic_fails(curve, gf):
    fermat = parse_quartic("X^4+Y^4+Z^4+W^4", gf)
    report = verify_sixteen_nodes(fermat, curve)
    assert not report.passed
    assert report.codim == 4  # singular ideal is irrelevant: no nodes at all


def test_nodes_distinct_mod_seven(curve):
    """The sixteen nodes stay distinct after reduction mod 7."""
    gf7 = PrimeField(7)
    points = list(all_node_points(curve, gf7).values())
    assert len(set(points)) == 16


def test_corpus_quartic_over_rationals_is_singular_at_nodes(curve):
    quartic_q = load_corpus_quartic(QQ)
    for label in NODE_LABELS:
        assert verify_node(quartic_q, node_point(curve, label, QQ))


def test_corpus_directory_override(tmp_path, monkeypatch, gf):
    (tmp_path / "kummer_quartic.txt").write_text("X^4+Y^4\n")
    monkeypatch.setenv("ULRICHCERT_CORPUS", str(tmp_path))
    assert len(load_corpus_quartic(gf).terms) == 2
    with pytest.raises(FileNotFoundError):
        load_corpus_quartic(gf, name="missing")
    # the lattice forms are built in code, so a corpus of one quartic suffices
    assert lattices.k3_lattice().rank == 22
    assert cli.main(["lattice", "horikawa"]) == cli.EXIT_OK


def test_summary_names_the_first_failure(quartic, curve, gf):
    locus = "sixteen-nodes check: {}, singular locus (codim, degree) = {}"
    assert verify_sixteen_nodes(quartic, curve).summary() == locus.format("pass", "(3, 16)")
    perturbed = parse_quartic("X^4", gf) + quartic
    assert verify_sixteen_nodes(perturbed, curve).summary() == (
        locus.format("FAIL", "(3, 1)") + "; E12 is not a singular point of the quartic mod 32003")
    wrong_size = NodeVerification(passed=False, distinct=True, node_results={}, codim=2,
                                  degree=2, first_failure=("dimension", 2, 2),
                                  points=all_node_points(curve, gf))
    assert wrong_size.summary() == locus.format("FAIL", "(2, 2)") + "; sixteen nodes need (3, 16)"
    # without points there is no field to name
    collision = NodeVerification(False, False, {}, 3, 16, ((1, 2), (1, 3)))
    assert collision.summary() == locus.format("FAIL", "(3, 16)") + "; E12 and E13 coincide"
    not_singular = NodeVerification(False, True, {(1, 2): False}, 3, 1, (1, 2))
    assert not_singular.summary() == (
        locus.format("FAIL", "(3, 1)") + "; E12 is not a singular point of the quartic")


def test_per_call_work_is_done_once(quartic, curve, gf, monkeypatch):
    """all_node_points expands the sextic once for all fifteen affine nodes,
    and verify_sixteen_nodes derives the partials once for the node checks
    and the singular-locus Groebner basis together."""
    from ulrichcert import kummer
    expected = {l: node_point(curve, l, gf) for l in NODE_LABELS}
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(kummer, "sextic_coefficients",
                        counted("sextic", kummer.sextic_coefficients))
    monkeypatch.setattr(kummer, "partial_derivatives",
                        counted("partials", kummer.partial_derivatives))
    assert all_node_points(curve, gf) == expected
    assert calls == ["sextic"]
    calls.clear()
    assert verify_sixteen_nodes(quartic, curve).passed
    assert calls == ["sextic", "partials"]


def test_verify_node_refuses_a_point_over_another_field(curve, gf):
    """A GF(32003) point was once coerced into the QQ ring and read as smooth."""
    quartic_q = load_corpus_quartic(QQ)
    assert verify_node(quartic_q, node_point(curve, (1, 4), QQ))
    with pytest.raises(ValueError, match=r"point over GF\(32003\) .* ring over QQ$"):
        verify_node(quartic_q, node_point(curve, (1, 4), gf))


def test_curve_reads_text_ints_and_fractions_but_no_float():
    curve = Genus2Curve(("1/2", True, 2, Fraction(3, 4), 4, 5))
    assert curve.roots == (Fraction(1, 2), 1, 2, Fraction(3, 4), 4, 5)
    with pytest.raises(TypeError, match="^cannot coerce float into QQ$"):
        Genus2Curve((0.1, 1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match="^invalid root '\u0661': not an integer or fraction"):
        Genus2Curve(("\u0661", 2, 3, 4, 5, 6))  # Fraction() once read it as 1
    with pytest.raises(ValueError, match="^the Weierstrass roots must be a list or tuple, not str$"):
        Genus2Curve("123456")  # once read one character at a time


def test_read_quartic_is_the_one_reader_of_a_quartic_source(gf):
    quartic = load_corpus_quartic(gf)
    assert read_quartic("corpus:", gf) == read_quartic("corpus:kummer_quartic", gf) == quartic
    assert read_quartic("inline:X^4-Y*W^3", gf) == parse_quartic("X^4-Y*W^3", gf)
    with pytest.raises(ValueError, match="^quartic source must be corpus:<name> or inline:<poly>"):
        read_quartic("file:kummer_quartic", gf)
    with pytest.raises(ValueError, match=r"degree 4 \(term degrees found: 2\)$"):
        read_quartic("inline:X^2", gf)
    with pytest.raises(ValueError, match="is not a bare file name"):
        read_quartic("corpus:../kummer_quartic", gf)
