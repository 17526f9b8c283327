"""Effectivity checks through node points and assembly of the full
certificate for the candidate Ulrich class.

One routine decides effectivity through the quartic model in P^3, for
classes aL - (nodes) + (nodes) with 0 <= a <= 3: each node with coefficient
1 is a fixed component and is dropped, and the sections left are the
degree-a forms through the nodes with coefficient -1. Any other class
raises ``UnsupportedShapeError``. The certificate asks it for
``2H - M = L - (four nodes)`` and for the double ``2(M - H) = 2L + (four
nodes) - (twelve nodes)``; zero sections of the double prove ``M - H``
non-effective, and a positive value blocks certification.

The certificate chain is: node verification, numerical conditions,
even-eight shape detection, involution invariance, then the two
effectivity values; the verdict is ``certified`` only if every step passes.

This module builds the certificate body and holds the trust rule of
``descend``: rebuild a certified body from its inputs, then conclude with
the report that ``enriques.descent_report`` builds. The document around a
body (header, digest, atomic write, reading it back and the verdict rule) is
``documents``, which loads no math layer.
"""
from __future__ import annotations

from collections import namedtuple

from . import _checked_make
from .documents import (CERTIFICATE_FORMAT, CertificateIntegrityError,
                        UncertifiedCertificateError, _canonical, _digest, _document,
                        certified_body, write_json_atomic)
from .enriques import JUSTIFICATIONS, descent_report
from .kummer import Genus2Curve, read_surface, verify_sixteen_nodes
from .labels import node_token
from .linalg import kernel_basis
from .picard import (BundleRecipe, HALF_EVEN_EIGHT, PolarizedSurfaceParams, build_theta_star,
                     checked_recipe, chi_k3, doubled_support, even_eight_test,
                     format_divisor, is_invariant, pairing, polarization)
from .polynomials import Poly, format_polynomial, monomial_basis, power_product


class UnsupportedShapeError(ValueError):
    """The divisor class is outside the decidable certificate shapes."""


# ---------------------------------------------------------------------------
# Linear conditions through points
# ---------------------------------------------------------------------------

def evaluation_matrix(d: int, points):
    """Rows indexed by points, columns by the degree-d monomial basis, and
    the points' scalar domain (None if there are no points).

    The points must be pairwise distinct and live in one scalar domain, the
    field that every computation on the rows is over.
    """
    points = list(points)
    if len(set(points)) != len(points):
        raise ValueError("points must be pairwise distinct")
    domain = points[0].domain if points else None
    mons = monomial_basis(d, 4)
    rows = []
    for pt in points:
        if pt.domain != domain:
            raise ValueError("points live in different scalar domains")
        rows.append([power_product(pt.coordinates, mon, domain) for mon in mons])
    return rows, mons, domain


def h0_forms_through_points(d: int, points) -> int:
    """Dimension of degree-d forms in four variables vanishing at the points."""
    rows, mons, domain = evaluation_matrix(d, points)
    return len(kernel_basis(rows, len(mons), domain)) if rows else len(mons)


def section_basis(d: int, points, ring) -> list:
    """Polynomials of ``ring`` spanning the degree-d forms through the points.

    The forms are solved for over the points' field, so ``ring`` must be over
    that field: a ring over another field is a ``ValueError`` naming both.
    """
    rows, mons, domain = evaluation_matrix(d, points)
    if domain not in (None, ring.domain):
        raise ValueError(f"the points lie over {domain!r} but the ring is over {ring.domain!r}")
    return [ring.poly({m: c for m, c in zip(mons, vec) if c})
            for vec in kernel_basis(rows, len(mons), ring.domain)]


# ---------------------------------------------------------------------------
# Check records and effectivity through forms through the nodes
# ---------------------------------------------------------------------------

class CheckRecord(namedtuple("CheckRecord", "name justification inputs value passed")):
    """One certificate step; ``justification`` is one or more whitelisted
    tags from ``enriques.JUSTIFICATIONS``, joined by ``+``."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, name, justification, inputs, value, passed):
        for tag in justification.split("+"):
            if tag not in JUSTIFICATIONS:
                raise ValueError(f"unknown justification tag {tag!r} in check {name!r}")
        return super().__new__(cls, name, justification, inputs, value, passed)


# what a failed effectivity check shows, quoted in the refutation witness
EFFECTIVITY_FAILURES = {
    "no-hyperplane-through-four-nodes":
        "a hyperplane through the four nodes exists; 2H - M is effective",
    "no-quadric-through-twelve-nodes":
        "the double of M - H is effective; certification fails",
}


def _forms_through_nodes(d, points_by_label, ring, name, inferences) -> CheckRecord:
    """The check that d = aL - (nodes S) + (nodes F) has no sections.

    Each node E in F has d.E = -2 < 0, so it is a fixed component and is
    dropped; the sections of aL - (nodes S) are the degree-a forms through
    the points of S. ``inferences`` are the tags cited before these steps.
    """
    doubled_l, support = doubled_support(d)
    degree, odd = divmod(doubled_l, 2)
    if odd or not 0 <= degree <= 3 or not support.keys() <= {-2, 2}:
        raise UnsupportedShapeError(
            f"cannot decide effectivity of {format_divisor(d)}: not aL with 0 <= a <= 3 "
            "plus node classes with coefficients -1, 0 or 1")
    if 2 in support:
        inferences += ("exceptional-twist",)
    labels = support.get(-2, ())
    sections = section_basis(degree, [points_by_label[l] for l in labels], ring)
    return CheckRecord(
        name=name,
        justification="+".join(inferences + ("sections-through-nodes", "finite-field-model")),
        inputs={"degree": degree, "labels": [node_token(l) for l in labels]},
        value={"h0": len(sections),
               "witness": format_polynomial(sections[0]) if sections else None},
        passed=not sections)


def check_two_h_minus_m(h, m, points_by_label, ring) -> CheckRecord:
    """Hyperplane test: 2H - M = L minus the four nodes outside the recipe."""
    return _forms_through_nodes(2 * h - m, points_by_label, ring,
                                "no-hyperplane-through-four-nodes", ())


def check_m_minus_h(h, m, points_by_label, ring) -> CheckRecord:
    """Quadric test on the double 2(M - H) = 2L + (four nodes) - (twelve nodes)."""
    return _forms_through_nodes(2 * (m - h), points_by_label, ring,
                                "no-quadric-through-twelve-nodes", ("doubling",))


# ---------------------------------------------------------------------------
# Certificate assembly
# ---------------------------------------------------------------------------

class UlrichCertificate:
    """The checks run on one surface and recipe, and the verdict they give;
    ``certify_ulrich`` appends to ``checks`` and sets the verdict."""

    def __init__(self, prime: int | None, roots: tuple, quartic_text: str,
                 recipe: BundleRecipe, s: int, node_summary: dict, checks=(),
                 verdict: str = "refuted", refutation_reason: str | None = None,
                 refutation_witness: dict | None = None):
        self.prime = prime
        self.roots = roots
        self.quartic_text = quartic_text
        self.recipe = recipe
        self.s = s
        self.node_summary = node_summary
        self.checks = list(checks)
        self.verdict = verdict
        self.refutation_reason = refutation_reason
        self.refutation_witness = refutation_witness

    def check(self, name: str) -> CheckRecord:
        for record in self.checks:
            if record.name == name:
                return record
        raise KeyError(name)


REASON_NODES = "nodes"
REASON_NUMERICAL = "numerical"
REASON_EVEN_EIGHT = "even-eight"
REASON_INVARIANCE = "invariance"
REASON_EFFECTIVITY = "effectivity"


def certify_ulrich(curve: Genus2Curve, quartic: Poly,
                   recipe: BundleRecipe | None = None,
                   params: PolarizedSurfaceParams | None = None) -> UlrichCertificate:
    """Run the full certification chain for the candidate class.

    Chain order: node verification, numerical conditions, even-eight shape
    detection (which refutes without geometry when it applies), involution
    invariance, then the two effectivity values. The verdict is
    ``certified`` iff every step passes.
    """
    recipe = recipe or BundleRecipe()
    params = params or PolarizedSurfaceParams()
    if recipe.kind == HALF_EVEN_EIGHT and not even_eight_test(recipe.labels):
        raise UnsupportedShapeError(
            "the eight recipe nodes are not an even eight, so the candidate "
            "is not an integral class")
    prime = getattr(quartic.ring.domain, "p", None)

    node_report = verify_sixteen_nodes(quartic, curve)
    cert = UlrichCertificate(
        prime=prime,
        roots=tuple(str(r) for r in curve.roots),
        quartic_text=format_polynomial(quartic),
        recipe=recipe,
        s=params.s,
        node_summary=node_report.evidence())

    def refuted(records, reason, witness=None) -> bool:
        """Record one stage's checks; if any failed, refute with the reason
        and witness and report that the chain stops here."""
        cert.checks.extend(records)
        if all(record.passed for record in records):
            return False
        cert.refutation_reason = reason
        cert.refutation_witness = witness
        return True

    if refuted([CheckRecord(name="sixteen-nodes",
                            justification="lattice-arithmetic",
                            inputs={"roots": cert.roots, "prime": prime},
                            value={"codim": node_report.codim, "degree": node_report.degree},
                            passed=node_report.passed)],
               REASON_NODES, {"first_failure": repr(node_report.first_failure)}):
        return cert

    h = polarization()
    m = recipe.divisor()
    s = params.s
    recipe_inputs = {"kind": recipe.kind, "labels": list(recipe.tokens())}

    numerical = [
        ("polarization-square", pairing(h, h), 2 * s),
        ("candidate-dot-polarization", pairing(h, m), 3 * s),
        ("candidate-square", pairing(m, m), 4 * s - 4),
        ("chi-m-minus-h", chi_k3(m - h), 0),
        ("chi-m-minus-2h", chi_k3(m - 2 * h), 0),
    ]
    if refuted([CheckRecord(name=name,
                            justification=("riemann-roch-k3" if name.startswith("chi")
                                           else "lattice-arithmetic"),
                            inputs=recipe_inputs, value=str(got), passed=(got == expected))
                for name, got, expected in numerical],
               REASON_NUMERICAL):
        return cert

    # Even-eight shape: M - H = half the sum of eight nodes.
    difference = m - h
    doubled_l, support = doubled_support(difference)
    if doubled_l == 0 and support.keys() == {1} and len(support[1]) == 8:
        halves = [node_token(l) for l in support[1]]
        divisible = even_eight_test(support[1])
        if refuted([CheckRecord(name="even-eight-detection",
                                justification="even-eight-complement",
                                inputs={"labels": halves},
                                value={"divisible_by_two": divisible},
                                passed=not divisible)],
                   REASON_EVEN_EIGHT,
                   {"labels": halves, "reason": "effective by even-eight criterion"}):
            return cert

    theta = build_theta_star()
    if refuted([CheckRecord(name=name, justification="invariant-lattice-descent",
                            inputs=recipe_inputs, value=ok, passed=ok)
                for name, ok in (("involution-fixes-polarization", is_invariant(theta, h)),
                                 ("involution-fixes-candidate", is_invariant(theta, m)))],
               REASON_INVARIANCE):
        return cert

    records = [check(h, m, node_report.points, quartic.ring)
               for check in (check_two_h_minus_m, check_m_minus_h)]
    failed = next((record for record in records if not record.passed), None)
    if refuted(records, REASON_EFFECTIVITY,
               None if failed is None else
               {"check": failed.name, **failed.value,
                "interpretation": EFFECTIVITY_FAILURES[failed.name]}):
        return cert

    cert.verdict = "certified"
    return cert


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def certificate_body(cert: UlrichCertificate) -> dict:
    """The deterministic part of the serialized certificate."""
    return {
        "surface": {
            "prime": cert.prime,
            "roots": list(cert.roots),
            "quartic": cert.quartic_text,
            "quartic_digest": _digest(cert.quartic_text)[:16],
        },
        "recipe": {"kind": cert.recipe.kind, "labels": list(cert.recipe.tokens())},
        "parameters": {"s": cert.s},
        "nodes": dict(cert.node_summary),
        "checks": [
            {
                "name": r.name,
                "justification": r.justification,
                "inputs_digest": _digest(r.inputs)[:16],
                "value": r.value,
                "pass": r.passed,
            }
            for r in cert.checks
        ],
        "verdict": cert.verdict,
        "refutation": (
            None if cert.refutation_reason is None else
            {"reason": cert.refutation_reason, "witness": cert.refutation_witness}),
    }


def certificate_document(cert: UlrichCertificate) -> dict:
    return _document(CERTIFICATE_FORMAT, certificate_body(cert))


def write_certificate(path, cert: UlrichCertificate) -> dict:
    document = certificate_document(cert)
    write_json_atomic(path, document)
    return document


# ---------------------------------------------------------------------------
# Descent to the quotient surface
# ---------------------------------------------------------------------------

def descend_to_enriques(cert: UlrichCertificate) -> dict:
    """Transfer a certified cover-side certificate down the double cover,
    under the same rule as a certificate read from a file; the report body
    that ``descend --out`` writes."""
    return descend_from_document(certificate_document(cert))


def _rebuild(body: dict) -> UlrichCertificate:
    """``certify_ulrich`` run on the curve, quartic, recipe and parameters that
    a certificate body records, each read as a run reads it; inputs that
    cannot be read or run are ``CertificateIntegrityError``. The surface is
    read through ``kummer.read_surface`` and the recipe through
    ``picard.checked_recipe``, as ``certify`` reads them."""
    try:
        surface = body["surface"]
        return certify_ulrich(*read_surface(surface["prime"], surface["roots"],
                                            "inline:" + surface["quartic"]),
                              checked_recipe(body["recipe"]["kind"], body["recipe"]["labels"]),
                              PolarizedSurfaceParams(body["parameters"]["s"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CertificateIntegrityError(f"certificate body has malformed inputs: {exc!r}") from exc


def _leaves(value, path="body") -> dict:
    """Each scalar of a JSON value, in canonical form, by its path such as
    ``body.nodes.degree``; a record in a list is named by its ``name``, as in
    ``body.checks.sixteen-nodes.pass``, and any other entry by its index."""
    if isinstance(value, list):
        value = {item["name"] if isinstance(item, dict) and isinstance(item.get("name"), str)
                 else k: item for k, item in enumerate(value)}
    if not isinstance(value, dict):
        return {path: _canonical(value)}
    return {leaf: text for key, item in value.items()
            for leaf, text in _leaves(item, f"{path}.{key}").items()}


def descend_from_document(document: dict) -> dict:
    """The quotient-side report of a certificate document, under one rule:
    rebuild the body from its inputs, then conclude.

    A body that does not record a certified verdict is refused at once by
    ``documents.certified_body`` (``UncertifiedCertificateError``).
    Otherwise ``certify_ulrich`` is run on the inputs the body records. A
    run that does not certify is ``UncertifiedCertificateError`` naming its
    reason and failing check; a certified run whose body differs from the
    recorded one is ``CertificateIntegrityError`` naming the first field
    that differs, as are inputs that cannot be read or run. The report is
    ``enriques.descent_report`` of the rebuilt certificate, headed by the
    digest of the body it was rebuilt from: the body that ``descend --out``
    writes.
    """
    body = certified_body(document)
    cert = _rebuild(body)
    if cert.verdict != "certified":
        failed = next(record.name for record in cert.checks if not record.passed)
        raise UncertifiedCertificateError(f"the certificate's inputs do not certify: "
                                          f"{cert.refutation_reason} at {failed!r}")
    rebuilt = certificate_body(cert)
    if _canonical(rebuilt) != _canonical(body):
        recorded, rebuilt = _leaves(body), _leaves(rebuilt)
        where = next((path for path in {**rebuilt, **recorded}
                      if recorded.get(path) != rebuilt.get(path)), "body")
        raise CertificateIntegrityError(f"certificate body differs from its rebuilt run at {where}")
    h, m = polarization(), cert.recipe.divisor()
    return {"certificate_digest": _digest(body),
            **descent_report(int(pairing(h, h)), int(pairing(m, h)), int(pairing(m, m)))}
