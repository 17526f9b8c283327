"""Quotient-surface numerology and the descent inference bookkeeping.

Intersection numbers on the quotient are the cover's numbers halved; the
Euler characteristic of a class D on an Enriques surface is 1 + D^2/2. The
torsion canonical class is tracked numerically only (it squares to zero and
pairs to zero with everything). ``descent_report`` builds the one
representation of the quotient-side report: the JSON body that ``descend``
prints from and writes. Conclusions that rest on standard geometry
rather than computation are recorded as inferences tagged with an identifier
from a fixed whitelist, so a certificate consumer can see exactly which
steps were computed and which were cited.
"""
from __future__ import annotations

from collections import namedtuple

from . import _checked_make

# Identifiers for the justification of each certificate step: either a
# direct exact computation or a cited inference rule.
JUSTIFICATIONS = {
    "lattice-arithmetic": (
        "computed exactly in the fixed rank-17 intersection form"),
    "riemann-roch-k3": (
        "chi(D) = 2 + D^2/2 on a K3 surface"),
    "invariant-lattice-descent": (
        "a class invariant under the fixed-point-free involution is the "
        "pullback of a class on the quotient (Horikawa-type lattice theory)"),
    "etale-pushforward-ulrich": (
        "the pushforward of an Ulrich bundle along the degree-2 etale "
        "quotient map is Ulrich for the descended polarization"),
    "summand-ulrich": (
        "a direct summand of an Ulrich bundle is Ulrich"),
    "pushforward-splits": (
        "pushing a pulled-back line bundle down the etale double cover "
        "splits as the descent twisted by 1 and by the canonical class"),
    "riemann-roch-enriques": (
        "chi(D) = 1 + D^2/2 on an Enriques surface"),
    "ample-no-higher-cohomology": (
        "an ample and globally generated polarization on an Enriques "
        "surface has vanishing higher cohomology, so h^0 = chi"),
    "doubling": (
        "if a divisor class is effective then so is its double"),
    "exceptional-twist": (
        "if d.E < 0 for a (-2)-curve E, then E is a fixed component of |d|, "
        "so h^0(d) = h^0(d - E)"),
    "even-eight-complement": (
        "the complement of an even eight among the sixteen nodes is again "
        "an even eight (Nikulin), hence half its sum is an effective class"),
    "sections-through-nodes": (
        "for 0 <= a <= 3, sections of aL minus node classes are the degree-a "
        "forms through the node images in P^3: the quartic is projectively "
        "normal and no nonzero form of degree below 4 is a multiple of it"),
    "finite-field-model": (
        "vanishing is certified in the stated finite-field model; transfer "
        "to characteristic zero is by semicontinuity and is not computed"),
}


class DescentInference(namedtuple("DescentInference", "premise conclusion justification")):
    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, premise, conclusion, justification):
        if justification not in JUSTIFICATIONS:
            raise ValueError(f"unknown justification {justification!r}")
        return super().__new__(cls, premise, conclusion, justification)


def halve(x_pairing: int) -> int:
    """Transfer an intersection number down the degree-2 cover."""
    if x_pairing % 2:
        raise ValueError(f"{x_pairing} is odd; the class does not descend")
    return x_pairing // 2


def chi_enriques(square: int) -> int:
    """1 + D^2/2 for a class of self-intersection D^2; the square must be even."""
    if square % 2:
        raise ValueError("odd self-intersection is impossible on an Enriques surface")
    return 1 + square // 2


def ulrich_transfer():
    """The descent inference chain for a class that is certified Ulrich on
    the cover and invariant under the involution: three steps ending in the
    Ulrich conclusion for the summand. Callers establish both premises."""
    return [
        DescentInference(
            premise="M is invariant under the involution",
            conclusion="M is the pullback of a line bundle N on the quotient",
            justification="invariant-lattice-descent"),
        DescentInference(
            premise="M is Ulrich on the cover and M pulls back from N",
            conclusion="the pushforward of M, which splits as N plus its "
                       "canonical twist, is Ulrich on the quotient",
            justification="etale-pushforward-ulrich"),
        DescentInference(
            premise="N is a direct summand of an Ulrich bundle",
            conclusion="N and its canonical twist are Ulrich line bundles",
            justification="summand-ulrich"),
    ]


def descent_report(h_square: int, m_dot_h: int, m_square: int) -> dict:
    """The quotient-side report of a class M that is certified Ulrich and
    invariant on the cover, from H.H, M.H and M.M there: the JSON body of an
    ``enriques-report/1`` document, without its ``certificate_digest``."""
    hy2, n_dot_h, n2 = halve(h_square), halve(m_dot_h), halve(m_square)
    chi_h = chi_enriques(hy2)
    inferences = ulrich_transfer() + [
        DescentInference(
            premise=f"chi(H_Y) = 1 + {hy2}/2 = {chi_h} and H_Y is ample and globally generated",
            conclusion=f"h0(H_Y) = {chi_h}, so the polarization maps the surface "
                       f"{hy2}:1 onto the plane",
            justification="ample-no-higher-cohomology"),
    ]
    return {
        "classes": [{"name": name, "self_intersection": square, "dot_with_polarization": dot}
                    for name, square, dot in (("H_Y", hy2, hy2), ("N", n2, n_dot_h),
                                              ("N+K_Y", n2, n_dot_h))],
        "chi_polarization": chi_h,
        "h0_polarization": chi_h,
        "plane_cover_degree": hy2,
        "halving": [["H.H", h_square, hy2], ["M.H", m_dot_h, n_dot_h], ["M.M", m_square, n2]],
        "inferences": [inference._asdict() for inference in inferences],
        "conclusion": "N and N+K_Y are Ulrich line bundles for H_Y",
    }
