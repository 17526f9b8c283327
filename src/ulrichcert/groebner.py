"""Buchberger Groebner bases over a field, with normal forms, ideal
membership, and Hilbert-series codimension/degree extraction.

The S-pair queue uses the normal selection strategy (smallest lcm degree
first, ties broken by the lcm exponent tuple and then the pair indices), and
prunes with the standard product and chain criteria. Output is the reduced
Groebner basis, which is unique for the fixed grevlex order, so the result is
independent of generator order.
"""
from __future__ import annotations

from dataclasses import dataclass
import functools
import itertools
import math

from .polynomials import Poly, grevlex_key


def _monomial_divides(a, b) -> bool:
    """True iff monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def _monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _monomial_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _monomial_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _normalize(terms: dict, domain) -> dict:
    """Scale so the leading coefficient is 1."""
    lm = max(terms, key=grevlex_key)
    inv = domain.inv(terms[lm])
    return {m: domain.mul(inv, c) for m, c in terms.items()}


def _reduce_terms(f: dict, basis, domain) -> dict:
    """Full remainder of f modulo a list of monic (lm, terms) pairs."""
    work = dict(f)
    remainder = {}
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        for lm, g in basis:
            if _monomial_divides(lm, m):
                shift = _monomial_sub(m, lm)
                for gm, gc in g.items():
                    if gm == lm:
                        continue
                    mm = _monomial_add(gm, shift)
                    v = domain.sub(work.get(mm, domain.zero), domain.mul(c, gc))
                    if domain.is_zero(v):
                        work.pop(mm, None)
                    else:
                        work[mm] = v
                break
        else:
            remainder[m] = c
    return remainder


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple
    reduced: bool = True

    @property
    def ring(self):
        return self.generators[0].ring

    def leading_monomials(self):
        return [g.leading_monomial() for g in self.generators]


def normal_form(f: Poly, basis) -> Poly:
    """Remainder of multivariate division of f by a generating set."""
    gens = basis.generators if isinstance(basis, GroebnerBasis) else list(basis)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return f
    ring = gens[0].ring
    if f.ring != ring:
        raise ValueError("polynomial and basis live in different rings")
    domain = ring.domain
    monic = []
    for g in gens:
        terms = _normalize(g.terms, domain)
        monic.append((max(terms, key=grevlex_key), terms))
    return Poly(ring, _reduce_terms(f.terms, monic, domain))


def _s_pair_terms(fi: dict, fj: dict, lmi, lmj, domain) -> dict:
    """S-polynomial of two monic term dicts."""
    lcm = _monomial_lcm(lmi, lmj)
    si, sj = _monomial_sub(lcm, lmi), _monomial_sub(lcm, lmj)
    out = {}
    for m, c in fi.items():
        out[_monomial_add(m, si)] = c
    for m, c in fj.items():
        mm = _monomial_add(m, sj)
        v = domain.sub(out.get(mm, domain.zero), c)
        if domain.is_zero(v):
            out.pop(mm, None)
        else:
            out[mm] = v
    return out


def s_polynomial(f: Poly, g: Poly) -> Poly:
    domain = f.ring.domain
    fi = _normalize(f.terms, domain)
    gj = _normalize(g.terms, domain)
    return Poly(f.ring, _s_pair_terms(fi, gj, max(fi, key=grevlex_key),
                                      max(gj, key=grevlex_key), domain))


def buchberger(gens) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise ValueError("generators live in different rings")
    domain = ring.domain
    key = grevlex_key

    basis = []          # list of monic term dicts
    lms = []            # their leading monomials
    for g in gens:
        terms = _normalize(g.terms, domain)
        basis.append(terms)
        lms.append(max(terms, key=key))

    pending = {(i, j) for j in range(len(basis)) for i in range(j)}
    processed = set()

    def pair_key(pr):
        lcm = _monomial_lcm(lms[pr[0]], lms[pr[1]])
        return (sum(lcm), lcm, pr)

    while pending:
        pair = min(pending, key=pair_key)
        pending.discard(pair)
        processed.add(pair)
        i, j = pair
        lcm = _monomial_lcm(lms[i], lms[j])
        if _monomial_add(lms[i], lms[j]) == lcm:
            continue  # product criterion: disjoint leading terms
        chain = False
        for k in range(len(basis)):
            if k in pair or not _monomial_divides(lms[k], lcm):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik in processed and pjk in processed:
                chain = True
                break
        if chain:
            continue
        s = _s_pair_terms(basis[i], basis[j], lms[i], lms[j], domain)
        monic_basis = list(zip(lms, basis))
        h = _reduce_terms(s, monic_basis, domain)
        if h:
            h = _normalize(h, domain)
            basis.append(h)
            lms.append(max(h, key=key))
            new = len(basis) - 1
            pending.update((k, new) for k in range(new))

    # minimalize: drop generators whose leading monomial is divisible by another
    keep = []
    for i, lm in enumerate(lms):
        dominated = any(
            j != i and _monomial_divides(lms[j], lm) and (lms[j] != lm or j < i)
            for j in range(len(basis)))
        if not dominated:
            keep.append(i)

    # inter-reduce the minimal basis
    reduced = []
    for idx in keep:
        others = [(lms[k], basis[k]) for k in keep if k != idx]
        r = _reduce_terms(basis[idx], others, domain)
        if r:
            reduced.append(_normalize(r, domain))
    reduced.sort(key=lambda t: key(max(t, key=key)))
    return GroebnerBasis(tuple(Poly(ring, t) for t in reduced), reduced=True)


def ideal_membership(f: Poly, gens) -> bool:
    """True iff f lies in the ideal generated by gens."""
    return normal_form(f, buchberger(gens)).is_zero()


# ---------------------------------------------------------------------------
# Hilbert series of the leading-term ideal
# ---------------------------------------------------------------------------

def _minimalize(mons):
    mons = sorted(set(mons), key=lambda m: (sum(m), m))
    out = []
    for m in mons:
        if not any(_monomial_divides(o, m) for o in out):
            out.append(m)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _k_numerator(mons):
    """Numerator N(t) of the Hilbert series N(t)/(1-t)^n of R/(mons).

    Returned as a tuple of (degree, coefficient) pairs. Uses the standard
    pivot recursion N(I + (g)) = N(I) - t^deg(g) * N(I : g).
    """
    if not mons:
        return ((0, 1),)
    if any(sum(m) == 0 for m in mons):
        return ()
    if all(sum(m) == 1 for m in mons):
        k = len(mons)
        return tuple((d, (-1) ** d * math.comb(k, d)) for d in range(k + 1))
    g = max(mons, key=lambda m: (sum(m), m))
    rest = tuple(m for m in mons if m != g)
    colon = _minimalize(
        tuple(_monomial_sub(m, tuple(min(a, b) for a, b in zip(m, g))) for m in rest))
    out = {}
    for d, c in _k_numerator(_minimalize(rest)):
        out[d] = out.get(d, 0) + c
    dg = sum(g)
    for d, c in _k_numerator(colon):
        out[d + dg] = out.get(d + dg, 0) - c
    return tuple(sorted((d, c) for d, c in out.items() if c))


def hilbert_degree_codim(gb: GroebnerBasis):
    """(codimension, degree) of the quotient by a homogeneous ideal.

    Both are read off the Hilbert series of the leading-term ideal: write the
    series as Q(t)/(1-t)^(n-c) with Q(1) != 0; the codimension is c and the
    degree is Q(1). With this projective convention the reduced ideal of k
    distinct points in P^3 has codimension 3 and degree k.
    """
    if not isinstance(gb, GroebnerBasis) or not gb.reduced:
        raise ValueError("a reduced Groebner basis is required")
    for g in gb.generators:
        if not g.is_homogeneous():
            raise ValueError("ideal is not homogeneous")
    nvars = gb.ring.nvars
    lts = _minimalize(tuple(gb.leading_monomials()))
    numerator = dict(_k_numerator(lts))
    if not numerator:
        return nvars, 0
    maxdeg = max(numerator)
    coeffs = [numerator.get(d, 0) for d in range(maxdeg + 1)]
    codim = 0
    while sum(coeffs) == 0:
        # N = (1 - t) Q means q_k is the prefix sum n_0 + ... + n_k
        coeffs = list(itertools.accumulate(coeffs[:-1])) or [0]
        codim += 1
        if codim > nvars:
            raise RuntimeError("numerator division runaway")
    return codim, sum(coeffs)
