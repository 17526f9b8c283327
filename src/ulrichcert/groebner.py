"""Buchberger Groebner bases over a field, with normal forms, ideal
membership, and Hilbert-series codimension/degree extraction.

The basis under construction is one list of monic (leading monomial, terms)
pairs. The S-pair queue is one dict from each unhandled index pair to its
selection key (lcm degree, lcm exponent tuple, pair indices), computed once
when the pair is created. Leading monomials never change, so the stored keys
stay exact and taking the smallest one is the normal selection strategy, in
the same order as recomputing the keys at every pop. Pairs are pruned with
the standard product and chain criteria; for the chain criterion a pair
counts as handled once it has left the queue. Output is the reduced
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


def _monic(terms: dict, domain):
    """(leading monomial, terms scaled so its coefficient is 1)."""
    lm = max(terms, key=grevlex_key)
    inv = domain.inv(terms[lm])
    return lm, {m: domain.coerce(inv * c) for m, c in terms.items()}


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
                    v = domain.coerce(work.get(mm, 0) - c * gc)
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return remainder


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple

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
    monic = [_monic(g.terms, domain) for g in gens]
    return Poly(ring, _reduce_terms(f.terms, monic, domain))


def _s_pair_terms(f, g, domain) -> dict:
    """S-polynomial of two monic (lm, terms) pairs."""
    (lmf, ft), (lmg, gt) = f, g
    lcm = _monomial_lcm(lmf, lmg)
    sf, sg = _monomial_sub(lcm, lmf), _monomial_sub(lcm, lmg)
    out = {}
    for m, c in ft.items():
        out[_monomial_add(m, sf)] = c
    for m, c in gt.items():
        mm = _monomial_add(m, sg)
        v = domain.coerce(out.get(mm, 0) - c)
        if v:
            out[mm] = v
        else:
            out.pop(mm, None)
    return out


def s_polynomial(f: Poly, g: Poly) -> Poly:
    domain = f.ring.domain
    return Poly(f.ring, _s_pair_terms(_monic(f.terms, domain), _monic(g.terms, domain),
                                      domain))


def _pairs_with_last(basis) -> dict:
    """Queue entries (i, j) -> (deg lcm, lcm, (i, j)) for j the last index."""
    j = len(basis) - 1
    lmj = basis[j][0]
    entries = {}
    for i in range(j):
        lcm = _monomial_lcm(basis[i][0], lmj)
        entries[(i, j)] = (sum(lcm), lcm, (i, j))
    return entries


def buchberger(gens) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise ValueError("generators live in different rings")
    domain = ring.domain

    basis = []      # monic (lm, terms) pairs
    pending = {}    # every pair of basis indices not yet handled
    for g in gens:
        basis.append(_monic(g.terms, domain))
        pending.update(_pairs_with_last(basis))

    while pending:
        _, lcm, (i, j) = pending.pop(min(pending, key=pending.get))
        if _monomial_add(basis[i][0], basis[j][0]) == lcm:
            continue  # product criterion: disjoint leading terms
        if any(k != i and k != j and _monomial_divides(basis[k][0], lcm)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k in range(len(basis))):
            continue  # chain criterion: (i, k) and (j, k) have left the queue
        h = _reduce_terms(_s_pair_terms(basis[i], basis[j], domain), basis, domain)
        if h:
            basis.append(_monic(h, domain))
            pending.update(_pairs_with_last(basis))

    # minimalize: drop generators whose leading monomial is divisible by another
    keep = [i for i, (lm, _) in enumerate(basis)
            if not any(j != i and _monomial_divides(other, lm) and (other != lm or j < i)
                       for j, (other, _) in enumerate(basis))]

    # inter-reduce the minimal basis
    reduced = []
    for i in keep:
        r = _reduce_terms(basis[i][1], [basis[k] for k in keep if k != i], domain)
        if r:
            reduced.append(_monic(r, domain))
    reduced.sort(key=lambda pair: grevlex_key(pair[0]))
    return GroebnerBasis(tuple(Poly(ring, terms) for _, terms in reduced))


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
    if not isinstance(gb, GroebnerBasis):
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
