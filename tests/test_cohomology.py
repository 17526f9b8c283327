import itertools
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ulrichcert.cohomology import (CheckRecord, UnsupportedShapeError, certificate_body,
                                   certificate_document, certify_ulrich, check_m_minus_h,
                                   check_two_h_minus_m,
                                   descend_from_document, descend_to_enriques,
                                   h0_forms_through_points, section_basis, write_certificate)
from ulrichcert.documents import (CertificateIntegrityError, UncertifiedCertificateError,
                                  _digest, load_certificate_document)
from ulrichcert import picard
from ulrichcert.fields import QQ, PrimeField
from ulrichcert.groebner import buchberger, hilbert_degree_codim
from ulrichcert.kummer import (all_node_points, default_curve, load_corpus_quartic, parse_quartic,
                               quartic_ring)
from ulrichcert.labels import NODE_LABELS, node_token
from ulrichcert.picard import (BundleRecipe, DEFAULT_TWELVE, HALF_EVEN_EIGHT,
                               even_eight_test, hyperplane_class, node_class, polarization)
from ulrichcert.polynomials import ProjectivePoint, partial_derivatives

FOUR = ((2, 3), (2, 5), (3, 4), (4, 5))
REMARK_EIGHT = ((1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6))

# the twelve whose complement is {23, 24, 34, 45}; both h0 values vanish for
# this split, but its candidate class is not involution-invariant
SWAPPED_TWELVE = tuple(l for l in DEFAULT_TWELVE if l != (2, 4)) + ((2, 5),)


@pytest.fixture(scope="module")
def nodes(curve, gf):
    return all_node_points(curve, gf)


def test_h0_four_nodes_admit_no_hyperplane(nodes):
    assert h0_forms_through_points(1, [nodes[l] for l in FOUR]) == 0


def test_h0_twelve_default_nodes_admit_one_quadric(nodes):
    twelve = [nodes[l] for l in DEFAULT_TWELVE]
    assert h0_forms_through_points(2, twelve) == 1


def test_h0_twelve_swapped_nodes_admit_no_quadric(nodes):
    twelve = [nodes[l] for l in SWAPPED_TWELVE]
    assert h0_forms_through_points(2, twelve) == 0


@pytest.mark.parametrize("domain", ["gf", "qq"])
def test_h0_four_twelve_sixteen_nodes(curve, gf, domain):
    # planes through the four complementary nodes, quadrics through the
    # twelve recipe nodes, quadrics through all sixteen: the last value is
    # h0 of 2(H - L), which decides M - H once its four fixed nodes are removed
    points = all_node_points(curve, gf if domain == "gf" else QQ)
    four = [points[l] for l in NODE_LABELS if l not in DEFAULT_TWELVE]
    twelve = [points[l] for l in DEFAULT_TWELVE]
    assert (h0_forms_through_points(1, four),
            h0_forms_through_points(2, twelve),
            h0_forms_through_points(2, list(points.values()))) == (0, 1, 0)


def test_h0_empty_point_set(gf):
    assert h0_forms_through_points(1, []) == 4


def test_h0_three_unit_points(gf):
    pts = [ProjectivePoint(gf, (1, 0, 0, 0)), ProjectivePoint(gf, (0, 1, 0, 0)),
           ProjectivePoint(gf, (0, 0, 1, 0))]
    assert h0_forms_through_points(1, pts) == 1


def test_h0_eight_of_twelve_positive(nodes):
    eight = [nodes[l] for l in DEFAULT_TWELVE[:8]]
    value = h0_forms_through_points(2, eight)
    assert value >= 10 - 8
    assert value == 3


def test_h0_rejects_repeated_points(nodes):
    with pytest.raises(ValueError):
        h0_forms_through_points(1, [nodes[(2, 3)], nodes[(2, 3)]])


def test_h0_monotone_and_rank_bounded(nodes):
    pts = [nodes[l] for l in NODE_LABELS]
    previous = h0_forms_through_points(2, [])
    for k in range(1, 13):
        current = h0_forms_through_points(2, pts[:k])
        assert current <= previous
        assert current >= math.comb(2 + 3, 3) - k
        previous = current


def test_h0_invariant_under_permutation_and_rescaling(curve, gf, nodes):
    pts = [nodes[l] for l in FOUR]
    baseline = h0_forms_through_points(1, pts)
    rng = random.Random(5)
    for _ in range(5):
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert h0_forms_through_points(1, shuffled) == baseline
    rescaled = [ProjectivePoint(gf, tuple(gf.coerce(17 * c) for c in p.coordinates))
                for p in pts]
    assert h0_forms_through_points(1, rescaled) == baseline


def test_h0_degree_one_matches_determinant_rank(nodes, gf):
    """Independent oracle: kernel count equals 4 - rank via minor expansion."""

    def det(mat):
        if len(mat) == 1:
            return mat[0][0] % gf.p
        total = 0
        for j in range(len(mat)):
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(minor)
        return total % gf.p

    rng = random.Random(11)
    for _ in range(6):
        subset = rng.sample(list(NODE_LABELS), 4)
        pts = [nodes[l] for l in subset]
        mat = [[int(c) for c in p.coordinates] for p in pts]
        minor_rank = 0
        for size in range(1, 5):
            found = False
            for rows in itertools.combinations(range(4), size):
                for cols in itertools.combinations(range(4), size):
                    sub = [[mat[r][c] for c in cols] for r in rows]
                    if det(sub) != 0:
                        found = True
                        break
                if found:
                    break
            if found:
                minor_rank = size
        assert h0_forms_through_points(1, pts) == 4 - minor_rank


def test_check_two_h_minus_m_default(nodes, quartic):
    outcome = check_two_h_minus_m(polarization(), BundleRecipe().divisor(),
                                  nodes, quartic.ring)
    assert outcome.value["h0"] == 0 and outcome.passed
    assert set(outcome.inputs["labels"]) == {node_token(l) for l in FOUR}


def test_check_two_h_minus_m_coplanar_witness(nodes, quartic):
    # complement chosen inside the six nodes of one trope plane
    coplanar_four = ((1, 6), (2, 6), (3, 6), (4, 6))
    twelve = tuple(l for l in NODE_LABELS if l not in coplanar_four)
    outcome = check_two_h_minus_m(polarization(), BundleRecipe(labels=twelve).divisor(),
                                  nodes, quartic.ring)
    assert outcome.value["h0"] == 1 and not outcome.passed
    assert outcome.value["witness"] is not None
    # the witness hyperplane really vanishes at the four points
    witness = parse_quartic(outcome.value["witness"], quartic.ring.domain)
    assert all(witness.evaluate(nodes[l]) == 0
               for l in coplanar_four)


# the effectivity routine decides aL - (nodes) + (nodes) for 0 <= a <= 3 and
# node coefficients -1, 0 or 1; expected is (degree, labels, h0, stripped)
@pytest.mark.parametrize("check, m, expected", [
    (check_two_h_minus_m, BundleRecipe(labels=DEFAULT_TWELVE[:11]).divisor(),
     (1, ["E23", "E25", "E34", "E35", "E45"], 0, False)),
    (check_m_minus_h, 2 * hyperplane_class(), (0, [], 1, True)),
    (check_two_h_minus_m, BundleRecipe(kind=HALF_EVEN_EIGHT, labels=REMARK_EIGHT).divisor(),
     None),
    (check_two_h_minus_m, BundleRecipe().divisor() + node_class((2, 3)), None),
    (check_m_minus_h, 4 * hyperplane_class(), None),
    (check_two_h_minus_m, 5 * hyperplane_class(), None),
], ids=["eleven-labels", "two-l", "half-integer", "coefficient-minus-two", "degree-four",
        "degree-minus-one"])
def test_check_shapes_rejected(nodes, quartic, check, m, expected):
    if expected is None:
        with pytest.raises(UnsupportedShapeError, match="cannot decide effectivity of "):
            check(polarization(), m, nodes, quartic.ring)
        return
    outcome = check(polarization(), m, nodes, quartic.ring)
    degree, labels, h0, stripped = expected
    assert outcome.inputs == {"degree": degree, "labels": labels}
    assert outcome.value["h0"] == h0 and outcome.passed == (h0 == 0)
    assert ("exceptional-twist" in outcome.justification.split("+")) == stripped


def test_check_m_minus_h_values(nodes, quartic):
    default = check_m_minus_h(polarization(), BundleRecipe().divisor(),
                              nodes, quartic.ring)
    assert default.value["h0"] == 1 and not default.passed
    assert default.value["witness"] is not None
    swapped = check_m_minus_h(polarization(),
                              BundleRecipe(labels=SWAPPED_TWELVE).divisor(),
                              nodes, quartic.ring)
    assert swapped.value["h0"] == 0 and swapped.passed


def test_witness_quadric_vanishes_on_twelve_and_not_on_four(nodes, quartic):
    outcome = check_m_minus_h(polarization(), BundleRecipe().divisor(),
                              nodes, quartic.ring)
    witness = parse_quartic(outcome.value["witness"], quartic.ring.domain)
    for label in DEFAULT_TWELVE:
        assert witness.evaluate(nodes[label]) == 0
    for label in FOUR:
        assert witness.evaluate(nodes[label]) != 0


def test_quadric_through_twelve_nodes_cuts_a_reduced_curve(nodes, quartic):
    # oracle for the M - H check: Q meets the surface F in a curve of degree
    # 8, and adding the 2x2 minors of the Jacobian of (F, Q) leaves points
    # only, so that curve is reduced and the unique member of |2(M - H)| is
    # not twice a curve
    (q,) = section_basis(2, [nodes[l] for l in DEFAULT_TWELVE], quartic.ring)
    assert hilbert_degree_codim(buchberger([quartic, q])) == (2, 8)
    jacobian = list(zip(partial_derivatives(quartic), partial_derivatives(q)))
    minors = [f1 * q2 - f2 * q1 for (f1, q1), (f2, q2) in itertools.combinations(jacobian, 2)]
    assert hilbert_degree_codim(buchberger([quartic, q] + minors)) == (3, 12)


# ---------------------------------------------------------------------------
# full certification chain
# ---------------------------------------------------------------------------

def test_certify_default_refuted_at_effectivity(curve, quartic):
    cert = certify_ulrich(curve, quartic)
    assert cert.verdict == "refuted"
    assert cert.refutation_reason == "effectivity"
    for name in ("polarization-square", "candidate-dot-polarization",
                 "candidate-square", "chi-m-minus-h", "chi-m-minus-2h",
                 "involution-fixes-polarization", "involution-fixes-candidate",
                 "no-hyperplane-through-four-nodes"):
        assert cert.check(name).passed, name
    failing = cert.check("no-quadric-through-twelve-nodes")
    assert not failing.passed
    assert failing.value["h0"] == 1
    assert cert.refutation_witness["witness"]


@pytest.mark.xfail(strict=True, reason="a run over QQ still cites finite-field-model on "
                   "both effectivity checks; dropping the tag changes the rational body "
                   "digest and waits for ROADMAP item 8(c)")
def test_rational_run_cites_no_finite_field_model(curve):
    cert = certify_ulrich(curve, load_corpus_quartic(QQ))
    assert cert.prime is None
    for record in cert.checks:
        assert "finite-field-model" not in record.justification.split("+"), record.name


def test_certify_swapped_recipe_refuted_at_invariance(curve, quartic):
    cert = certify_ulrich(curve, quartic, BundleRecipe(labels=SWAPPED_TWELVE))
    assert cert.refutation_reason == "invariance"
    assert not cert.check("involution-fixes-candidate").passed
    # the effectivity checks never ran
    with pytest.raises(KeyError):
        cert.check("no-quadric-through-twelve-nodes")


def test_certify_remark_recipe_refuted_even_eight(curve, quartic):
    recipe = BundleRecipe(kind=HALF_EVEN_EIGHT, labels=REMARK_EIGHT)
    cert = certify_ulrich(curve, quartic, recipe)
    assert cert.refutation_reason == "even-eight"
    for name in ("candidate-dot-polarization", "candidate-square"):
        assert cert.check(name).passed
    detection = cert.check("even-eight-detection")
    assert detection.value["divisible_by_two"] is True
    # the refuting eight is the complement of the recipe's eight
    complement = {l for l in NODE_LABELS if l not in REMARK_EIGHT}
    from ulrichcert.labels import parse_node_token
    assert {parse_node_token(t) for t in cert.refutation_witness["labels"]} == complement


def test_default_generators_hnf_built_at_most_once(curve, quartic, monkeypatch):
    calls = []
    build = picard.hermite_normal_form

    def counting_build(rows):
        calls.append(len(rows))
        return build(rows)

    monkeypatch.setattr(picard, "hermite_normal_form", counting_build)
    assert even_eight_test(REMARK_EIGHT)
    assert even_eight_test(REMARK_EIGHT)
    cert = certify_ulrich(curve, quartic, BundleRecipe(kind=HALF_EVEN_EIGHT, labels=REMARK_EIGHT))
    assert cert.refutation_reason == "even-eight"
    assert len(calls) <= 1


def test_certify_eleven_labels_refuted_numerically(curve, quartic):
    cert = certify_ulrich(curve, quartic, BundleRecipe(labels=DEFAULT_TWELVE[:11]))
    assert cert.refutation_reason == "numerical"
    assert not cert.check("candidate-square").passed


def test_certify_half_recipe_needs_even_eight(curve, quartic):
    not_even = ((0,), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4))
    with pytest.raises(UnsupportedShapeError):
        certify_ulrich(curve, quartic,
                       BundleRecipe(kind=HALF_EVEN_EIGHT, labels=not_even))


def test_certify_bad_quartic_refuted_at_nodes(curve, gf):
    fermat = parse_quartic("X^4+Y^4+Z^4+W^4", gf)
    cert = certify_ulrich(curve, fermat)
    assert cert.refutation_reason == "nodes"
    assert len(cert.checks) == 1


def test_certificate_body_is_deterministic(curve, quartic):
    body_a = certificate_body(certify_ulrich(curve, quartic))
    body_b = certificate_body(certify_ulrich(curve, quartic))
    assert json.dumps(body_a, sort_keys=True) == json.dumps(body_b, sort_keys=True)


# body digests of each refutation path, pinned so that a refactor of the
# certification chain cannot change a certificate body unnoticed
GOLDEN_BODY_DIGESTS = {
    "effectivity": "4ba54bdb99b4c5d8245390c5194a6ad0318a63685a5ad94f5d741fb211e5a775",
    "invariance": "898357362a02ab20409db7b820ac822ea0d5e1789c971f99711133c961c45046",
    "even-eight": "17debb392b8461bf49ac8c1cb5b72495b61a44e05b49a2a885cd7e83bc0facbb",
    "numerical": "a80a0b39eb5cf333b457c4081b8eddb72e970b7aae47ac1f51424f2fea6455b4",
    "nodes": "82b230d31c226808c54295bdcc246d777cef028f7feb71076dcb7b9789c8763b",
    "rational": "fbbd114911b2ee70c1dbc243fbf3082179f9bff6688130845b21c25f8ddd772f",
}


@pytest.mark.parametrize("run", sorted(GOLDEN_BODY_DIGESTS))
def test_certificate_body_digest_matches_golden(run, curve, gf, quartic):
    if run == "invariance":
        cert = certify_ulrich(curve, quartic, BundleRecipe(labels=SWAPPED_TWELVE))
    elif run == "even-eight":
        cert = certify_ulrich(curve, quartic,
                              BundleRecipe(kind=HALF_EVEN_EIGHT, labels=REMARK_EIGHT))
    elif run == "numerical":
        cert = certify_ulrich(curve, quartic, BundleRecipe(labels=DEFAULT_TWELVE[:11]))
    elif run == "nodes":
        cert = certify_ulrich(curve, parse_quartic("X^4+Y^4+Z^4+W^4", gf))
    elif run == "rational":
        cert = certify_ulrich(curve, load_corpus_quartic(QQ))
    else:
        cert = certify_ulrich(curve, quartic)
    expected_reason = "effectivity" if run == "rational" else run
    assert cert.refutation_reason == expected_reason
    assert _digest(certificate_body(cert)) == GOLDEN_BODY_DIGESTS[run]


def test_certificate_round_trip_and_integrity(tmp_path, curve, quartic):
    cert = certify_ulrich(curve, quartic)
    path = tmp_path / "cert.json"
    document = write_certificate(path, cert)
    loaded = load_certificate_document(path)
    assert loaded["body"] == document["body"]
    tampered = dict(document)
    tampered["body"] = json.loads(json.dumps(document["body"]))
    tampered["body"]["verdict"] = "certified"
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(tampered))
    with pytest.raises(CertificateIntegrityError):
        load_certificate_document(bad_path)


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

def test_descend_refuses_refuted(curve, quartic):
    with pytest.raises(UncertifiedCertificateError):
        descend_to_enriques(certify_ulrich(curve, quartic))


def test_descend_in_memory_checks_the_recipe(certified):
    certified.recipe = BundleRecipe(labels=DEFAULT_TWELVE[:11])
    with pytest.raises(CertificateIntegrityError, match="needs exactly 12 labels"):
        descend_to_enriques(certified)


def test_check_record_rejects_unknown_justification_tag():
    CheckRecord(name="x", justification="doubling+finite-field-model", inputs={},
                value=None, passed=True)
    with pytest.raises(ValueError,
                       match="^unknown justification tag 'no-such-tag' in check 'x'$"):
        CheckRecord(name="x", justification="doubling+no-such-tag", inputs={},
                    value=None, passed=True)
    with pytest.raises(ValueError, match="^unknown justification tag '' in check 'y'$"):
        CheckRecord("y", "doubling+", {}, None, True)


def test_descend_report_numbers(certified):
    report = descend_to_enriques(certified)
    by_name = {c["name"]: c for c in report["classes"]}
    assert by_name["H_Y"]["self_intersection"] == 4
    assert by_name["N"]["self_intersection"] == 6
    assert by_name["N"]["dot_with_polarization"] == 6
    assert by_name["N+K_Y"]["self_intersection"] == 6
    assert report["chi_polarization"] == 3
    assert report["h0_polarization"] == 3
    assert report["plane_cover_degree"] == 4
    assert "Ulrich" in report["conclusion"]
    assert report["halving"] == [["H.H", 8, 4], ["M.H", 12, 6], ["M.M", 12, 6]]
    justifications = [inf["justification"] for inf in report["inferences"]]
    assert justifications[:3] == ["invariant-lattice-descent",
                                  "etale-pushforward-ulrich", "summand-ulrich"]


def test_descend_from_document(tmp_path, certified):
    path = tmp_path / "cert.json"
    document = write_certificate(path, certified)
    report = descend_from_document(load_certificate_document(path))
    assert report["certificate_digest"] == document["digest"]
    assert report["halving"][0] == ["H.H", 8, 4]
    # the report names the digest of the body it rebuilt, not a stale one
    stale = dict(document, digest="0" * 64)
    assert descend_from_document(stale)["certificate_digest"] == document["digest"]


def test_descend_names_the_check_a_certified_body_misstates(certified):
    document = certificate_document(certified)
    document["body"]["checks"][0]["value"]["codim"] = 2
    with pytest.raises(CertificateIntegrityError,
                       match=r"rebuilt run at body\.checks\.sixteen-nodes\.value\.codim$"):
        descend_from_document(document)


def test_section_basis_refuses_a_ring_over_another_field(nodes):
    """The forms are solved for over the points' field. A ring over QQ,
    GF(101) or GF(7) once found no quadric through the twelve recipe nodes
    over GF(32003), where there is one."""
    twelve = [nodes[l] for l in DEFAULT_TWELVE]
    assert h0_forms_through_points(2, twelve) == 1
    assert len(section_basis(2, twelve, quartic_ring(twelve[0].domain))) == 1
    for other in (QQ, PrimeField(101), PrimeField(7)):
        with pytest.raises(ValueError, match=r"^the points lie over GF\(32003\) but the ring is "
                                             f"over {re.escape(repr(other))}$"):
            section_basis(2, twelve, quartic_ring(other))


NODES_OVER = {domain: all_node_points(default_curve(), domain)
              for domain in (PrimeField(32003), QQ)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(NODES_OVER)), st.integers(1, 3),
       st.lists(st.sampled_from(NODE_LABELS), unique=True))
def test_section_basis_spans_h0_forms(domain, d, labels):
    points = [NODES_OVER[domain][l] for l in labels]
    assert len(section_basis(d, points, quartic_ring(domain))) == h0_forms_through_points(d, points)
