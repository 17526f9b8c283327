"""Genus-2 curve data and the sixteen nodes of its Kummer quartic.

For a curve y^2 = prod (x - s_j) with six distinct Weierstrass roots, the
image of the two-torsion class {i, j} on the classical quartic model in P^3
has coordinates

    (1 : s_i + s_j : s_i s_j : F0(s_i, s_j) / (s_i - s_j)^2)

with F0(u, v) = 2 f0 + f1 (u+v) + 2 f2 uv + f3 uv (u+v) + 2 f4 (uv)^2
+ f5 (uv)^2 (u+v) + 2 f6 (uv)^3 built from the sextic coefficients, and the
origin class maps to (0:0:0:1). The quartic itself is supplied as input;
it is cross-validated, never derived: every formula-produced point must be a
singular point of the quartic, the sixteen points must be pairwise distinct,
and the singular locus must have codimension 3 and degree 16.

``read_surface`` is the one reader of a run's surface: its prime picks the
field, GF(p) or QQ, its roots give the curve, and ``read_quartic`` reads its
quartic, ``corpus:<name>`` or ``inline:<poly>``, over that field. The
command line and ``descend``'s rebuild of a certificate both read through
it. The corpus is the bundled ``corpus`` directory, or the one that the
ULRICHCERT_CORPUS environment variable names.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
import os
from types import MappingProxyType

from . import _checked_make
from .fields import QQ, PrimeField
from .groebner import buchberger, hilbert_degree_codim
from .labels import DEFAULT_ROOTS, NODE_LABELS, node_token, parse_number, validate_node_label
from .polynomials import Poly, PolyRing, ProjectivePoint, parse_polynomial, partial_derivatives

QUARTIC_VARIABLES = ("X", "Y", "Z", "W")


class Genus2Curve(namedtuple("Genus2Curve", "roots")):
    """Six distinct Weierstrass x-coordinates, given as a list or tuple and
    kept as exact rationals; a root is text such as ``"1/2"`` in ASCII
    digits, or an int or a Fraction, never a float."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, roots):
        if not isinstance(roots, (list, tuple)):
            raise ValueError(f"the Weierstrass roots must be a list or tuple, "
                             f"not {type(roots).__name__}")
        roots = tuple(QQ.coerce(parse_number(r, "root") if isinstance(r, str) else r)
                      for r in roots)
        if len(roots) != 6:
            raise ValueError("exactly six Weierstrass roots are required")
        if len(set(roots)) != 6:
            raise ValueError("Weierstrass roots must be pairwise distinct")
        return super().__new__(cls, roots)


def sextic_coefficients(curve: Genus2Curve):
    """Coefficients (f0, ..., f6) of the monic sextic prod (x - s_j)."""
    coeffs = [Fraction(1)]
    for s in curve.roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= s * c
        coeffs = nxt
    return tuple(coeffs)


def _f0_bilinear(coeffs, u, v):
    uv = u * v
    return (2 * coeffs[0] + coeffs[1] * (u + v) + 2 * coeffs[2] * uv
            + coeffs[3] * uv * (u + v) + 2 * coeffs[4] * uv ** 2
            + coeffs[5] * uv ** 2 * (u + v) + 2 * coeffs[6] * uv ** 3)


def node_point(curve: Genus2Curve, label, domain=QQ) -> ProjectivePoint:
    """Coordinates in P^3 of the node with the given two-torsion label."""
    return _node_point(curve, sextic_coefficients(curve), validate_node_label(label), domain)


def _node_point(curve, coeffs, label, domain) -> ProjectivePoint:
    """node_point for a validated label, given the curve's sextic coefficients."""
    if label == (0,):
        return ProjectivePoint(domain, (0, 0, 0, 1))
    i, j = label
    u, v = curve.roots[i - 1], curve.roots[j - 1]
    w = Fraction(_f0_bilinear(coeffs, u, v), 1) / (u - v) ** 2
    try:
        return ProjectivePoint(domain, (1, u + v, u * v, w))
    except ZeroDivisionError as exc:
        raise ValueError(f"curve degenerates in {domain!r}: {exc}") from exc


def all_node_points(curve: Genus2Curve, domain=QQ) -> dict:
    """All sixteen labelled node points, in label order."""
    coeffs = sextic_coefficients(curve)
    return {label: _node_point(curve, coeffs, label, domain) for label in NODE_LABELS}


def quartic_ring(domain) -> PolyRing:
    return PolyRing(QUARTIC_VARIABLES, domain)


def load_corpus_quartic(domain, name: str = "kummer_quartic") -> Poly:
    """The polynomial in the corpus file ``<name>.txt``, parsed verbatim, by
    default the reference Kummer quartic. ``name`` must be a bare file name,
    so no corpus name reaches outside the corpus directory."""
    if os.path.basename(name) != name:
        raise ValueError(f"corpus name {name!r} is not a bare file name")
    directory = (os.environ.get("ULRICHCERT_CORPUS")
                 or os.path.join(os.path.dirname(os.path.realpath(__file__)), "corpus"))
    path = os.path.join(directory, f"{name}.txt")
    if not os.path.isfile(path):
        raise FileNotFoundError(f"corpus file {path} not found")
    with open(path) as handle:
        return parse_polynomial(handle.read(), quartic_ring(domain))


def parse_quartic(text: str, domain) -> Poly:
    return parse_polynomial(text, quartic_ring(domain))


def read_quartic(source: str, domain) -> Poly:
    """A run's quartic from ``corpus:<name>`` (a bare ``corpus:`` names the
    reference quartic) or ``inline:<poly>``; anything but a nonzero form of
    degree 4 is a ``ValueError`` naming the term degrees found."""
    kind, _, value = source.partition(":")
    if kind == "corpus":
        quartic = load_corpus_quartic(domain, value or "kummer_quartic")
    elif kind == "inline":
        quartic = parse_quartic(value, domain)
    else:
        raise ValueError(f"quartic source must be corpus:<name> or inline:<poly>, "
                         f"got {source!r}")
    degrees = sorted({sum(m) for m in quartic.terms})
    if degrees != [4]:
        raise ValueError(f"the quartic is not a nonzero form of degree 4 (term "
                         f"degrees found: {', '.join(map(str, degrees)) or 'none'})")
    return quartic


def read_surface(prime, roots, source: str):
    """The curve and quartic of a run: ``Genus2Curve(roots)``, then the
    quartic that ``read_quartic`` reads from ``source`` over GF(prime), or
    over QQ where ``prime`` is None."""
    curve = Genus2Curve(roots)
    return curve, read_quartic(source, QQ if prime is None else PrimeField(prime))


def verify_node(quartic: Poly, point: ProjectivePoint) -> bool:
    """True iff the quartic and all four partials vanish at the point."""
    return _singular_at(quartic, partial_derivatives(quartic), point)


def _singular_at(quartic, partials, point) -> bool:
    """verify_node with the partials of the quartic already derived."""
    return not quartic.evaluate(point) and not any(g.evaluate(point) for g in partials)


class NodeVerification(namedtuple(
        "NodeVerification", "passed distinct node_results codim degree first_failure points",
        defaults=(None, MappingProxyType({})))):
    """Evidence bundle for the sixteen-nodes check.

    ``node_results`` maps each label to whether its point is singular, and
    ``first_failure`` is the first failing label or colliding pair. The
    default ``points`` is a read-only empty mapping, so no two records share
    a mutable dict.
    """

    __slots__ = ()

    def evidence(self) -> dict:
        """The verdict and singular-locus numbers, as written to certificates
        and node reports."""
        return {"passed": self.passed, "distinct": self.distinct,
                "codim": self.codim, "degree": self.degree}

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = (f"sixteen-nodes check: {status}, singular locus (codim, degree) = "
                f"({self.codim}, {self.degree})")
        if self.first_failure is None:
            return line
        return f"{line}; {self._failure_text()}"

    def _failure_text(self) -> str:
        """The first failure in node tokens, e.g. 'E14 and E15 coincide mod 5';
        without points there is no domain to name, so no ' mod p'."""
        failure = self.first_failure
        if failure[0] == "dimension":
            return "sixteen nodes need (3, 16)"
        domain = next((pt.domain for pt in self.points.values()), None)
        where = f" mod {domain.p}" if isinstance(domain, PrimeField) else ""
        if failure in self.node_results:
            return f"{node_token(failure)} is not a singular point of the quartic{where}"
        first, second = failure
        return f"{node_token(first)} and {node_token(second)} coincide{where}"


def verify_sixteen_nodes(quartic: Poly, curve: Genus2Curve) -> NodeVerification:
    """Check the supplied quartic against the formula-produced nodes.

    (a) the sixteen points are pairwise distinct, (b) each is a singular
    point of the quartic, and (c) the ideal of the quartic and its partials
    has codimension 3 and degree 16, which together force the reduced
    singular scheme to be exactly these sixteen points.
    """
    dom = quartic.ring.domain
    points = all_node_points(curve, dom)
    seen = {}
    first_failure = None
    distinct = True
    for label, pt in points.items():
        if pt in seen:
            distinct = False
            first_failure = (seen[pt], label)
            break
        seen[pt] = label
    partials = partial_derivatives(quartic)
    node_results = {label: _singular_at(quartic, partials, pt) for label, pt in points.items()}
    all_singular = all(node_results.values())
    if first_failure is None and not all_singular:
        first_failure = next(lab for lab, ok in node_results.items() if not ok)
    gb = buchberger([quartic] + partials)
    codim, degree = hilbert_degree_codim(gb)
    dims_ok = (codim, degree) == (3, 16)
    if first_failure is None and not dims_ok:
        first_failure = ("dimension", codim, degree)
    passed = distinct and all_singular and dims_ok
    return NodeVerification(passed=passed, distinct=distinct,
                            node_results=node_results, codim=codim, degree=degree,
                            first_failure=first_failure, points=points)


def default_curve() -> Genus2Curve:
    return Genus2Curve(DEFAULT_ROOTS)

