"""Sparse multivariate polynomials over an exact scalar domain.

A polynomial is a map from exponent tuples to nonzero scalars. The text
format accepted by :func:`parse_polynomial` is the usual computer-algebra
shape, e.g. ``7056*X^4-2016*X^2*Y^2+...``; :func:`format_polynomial` prints
the same shape with terms in descending graded reverse lexicographic order,
highest-precedence variable first.
"""
from __future__ import annotations

from collections import namedtuple
import itertools
import math
from operator import index
import re

from .labels import join_terms, split_terms

Monomial = tuple


def grevlex_key(m: Monomial):
    """Sort key under which max() picks the grevlex-largest monomial."""
    return (sum(m), tuple([-e for e in reversed(m)]))


class PolyRing(namedtuple("PolyRing", "variables domain")):
    """Variable names plus a scalar domain."""

    __slots__ = ()

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def poly(self, terms) -> "Poly":
        """Build a polynomial from (monomial, coefficient) pairs: validate the
        exponents, sum like terms, coerce and drop zeros. Every Poly operation
        builds its result here."""
        if isinstance(terms, dict):
            terms = terms.items()
        out = {}
        nvars, coerce = self.nvars, self.domain.coerce
        for mon, coeff in terms:
            try:
                mon = tuple([index(e) for e in mon])   # an int exponent, never truncated
            except TypeError:
                raise ValueError(f"bad exponent tuple {mon}") from None
            if len(mon) != nvars or (mon and min(mon) < 0):
                raise ValueError(f"bad exponent tuple {mon}")
            out[mon] = coerce(out.get(mon, 0) + coeff)
        return Poly(self, {m: c for m, c in out.items() if c})

    def zero(self) -> "Poly":
        return Poly(self, {})

    def variable(self, i: int) -> "Poly":
        mon = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {mon: self.domain.coerce(1)})


class Poly:
    """Immutable sparse polynomial; construct through PolyRing.poly."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return self.ring.poly(itertools.chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "Poly":
        return self.ring.poly((m, -c) for m, c in self.terms.items())

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c0 = self.ring.domain.coerce(other)
            return self.ring.poly((m, c * c0) for m, c in self.terms.items())
        self._check(other)
        return self.ring.poly((tuple([a + b for a, b in zip(m1, m2)]), c1 * c2)
                              for m1, c1 in self.terms.items()
                              for m2, c2 in other.terms.items())

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ring == self.ring
                and other.terms == self.terms)

    def __repr__(self):
        return f"Poly({format_polynomial(self)})"

    def _check(self, other: "Poly"):
        if other.ring != self.ring:
            raise ValueError("polynomials live in different rings")

    def diff(self, var: int) -> "Poly":
        """Partial derivative with respect to variable index var."""
        return self.ring.poly((m[:var] + (m[var] - 1,) + m[var + 1:], c * m[var])
                              for m, c in self.terms.items() if m[var])

    def evaluate(self, point):
        """Exact value at a point (coordinates in the coefficient domain)."""
        dom = self.ring.domain
        coords = point.coordinates if isinstance(point, ProjectivePoint) else tuple(point)
        if len(coords) != self.ring.nvars:
            raise ValueError("point dimension does not match variable count")
        coords = [dom.coerce(x) for x in coords]
        return dom.coerce(sum(c * power_product(coords, m, dom) for m, c in self.terms.items()))


def power_product(coords, mon: Monomial, domain):
    """The monomial mon evaluated at coords."""
    return domain.coerce(math.prod(x ** e for x, e in zip(coords, mon)))


def partial_derivatives(f: Poly):
    """All partial derivatives of f, one per ring variable."""
    return [f.diff(i) for i in range(f.ring.nvars)]


class ProjectivePoint:
    """A projective point, normalized so its first nonzero coordinate is 1."""

    __slots__ = ("domain", "coordinates")

    def __init__(self, domain, coordinates):
        coords = [domain.coerce(x) for x in coordinates]
        lead = next((x for x in coords if x), None)
        if lead is None:
            raise ValueError("all coordinates are zero")
        inv = domain.inv(lead)
        self.domain = domain
        self.coordinates = tuple([domain.coerce(inv * x) for x in coords])

    def __eq__(self, other):
        return (isinstance(other, ProjectivePoint) and other.domain == self.domain
                and other.coordinates == self.coordinates)

    def __hash__(self):
        return hash((self.domain, self.coordinates))

    def __repr__(self):
        return "(" + ":".join(str(x) for x in self.coordinates) + ")"


def monomial_basis(d: int, n: int):
    """All monomials of total degree d in n variables, grevlex-descending."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    mons = []
    for bars in itertools.combinations(range(d + n - 1), n - 1):
        prev = -1
        exps = []
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + n - 2 - prev)
        mons.append(tuple(exps))
    mons.sort(key=grevlex_key, reverse=True)
    assert len(mons) == math.comb(d + n - 1, n - 1)
    return mons


_FACTOR_RE = re.compile(r"^([A-Za-z_]\w*)(?:\^(\d+))?$")


def parse_polynomial(text: str, ring: PolyRing) -> Poly:
    """Parse a sum of ``c*V1^e1*V2^e2`` terms into a polynomial."""
    var_index = {name: i for i, name in enumerate(ring.variables)}
    terms = []
    for term in split_terms(text, "polynomial"):
        coeff = -1 if term[0] == "-" else 1
        exps = [0] * ring.nvars
        for factor in term.lstrip("+-").split("*"):
            if not factor:
                raise ValueError(f"empty factor in term {term!r}")
            if factor[0].isdigit():
                if not factor.isdigit():
                    raise ValueError(f"bad coefficient {factor!r}")
                coeff *= int(factor)
            else:
                fm = _FACTOR_RE.match(factor)
                if not fm or fm.group(1) not in var_index:
                    raise ValueError(f"unknown variable in factor {factor!r}")
                exps[var_index[fm.group(1)]] += int(fm.group(2) or 1)
        terms.append((tuple(exps), coeff))
    return ring.poly(terms)


def format_polynomial(f: Poly) -> str:
    """Canonical text form: grevlex-descending terms, '^' powers, '*' products."""
    names = f.ring.variables
    terms = []
    for mon in sorted(f.terms, key=grevlex_key, reverse=True):
        text = str(f.terms[mon])
        sign, magnitude = ("-", text[1:]) if text.startswith("-") else ("", text)
        factors = []
        if magnitude != "1" or not any(mon):
            factors.append(magnitude)
        for name, e in zip(names, mon):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        terms.append(sign + "*".join(factors))
    return join_terms(terms)
