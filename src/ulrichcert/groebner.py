"""Buchberger Groebner bases over a field, with normal forms, ideal
membership, and Hilbert-series codimension/degree extraction.

The basis under construction is one list of monic (leading monomial, terms)
pairs; it only grows, by appending. Three structures keep every step of the
inner loops free of scans, each choosing exactly what a scan would choose:

- The S-pair queue is a heap of selection keys (lcm degree, lcm exponent
  tuple, pair indices), computed once when the pair is created, with the set
  of queued pairs beside it for the chain criterion's "still queued" test.
  Leading monomials never change, so the stored keys stay exact, and the
  keys are unique (they end in the pair), so each pop gives the pair with the
  smallest key among those queued: the normal selection strategy, in the
  same order as recomputing the keys and taking the minimum at every pop.
- A remainder under construction keeps the monomials still to reduce in a
  heap keyed by the negated grevlex key, so the largest one is popped rather
  than searched for. A key is pushed when its monomial enters the work dict
  and skipped when popped after the monomial has cancelled. A reduction step
  only adds monomials below the one it removes, so a popped monomial never
  returns.
- Within one ``buchberger`` run, a memo maps each monomial met in a
  reduction to the first basis index whose leading monomial divides it (or
  None) and the basis length searched. Appending never changes the first
  divisor once found, and a None answer is extended by searching only the
  entries appended since, so the memo picks the same divisor as a scan from
  the start. It lives only for that run; every other reduction (normal forms,
  the final inter-reduction over a different list) starts an empty one.

Pairs are pruned with the standard product and chain criteria; for the chain
criterion a pair counts as handled once it has left the queue. Output is the
reduced Groebner basis, which is unique for the fixed grevlex order, so the
result is independent of generator order.
"""
from __future__ import annotations

from dataclasses import dataclass
import functools
from heapq import heapify, heappop, heappush
import itertools
import math
import operator

from .polynomials import Poly, grevlex_key


def _monomial_divides(a, b) -> bool:
    """True iff monomial a divides monomial b."""
    return all(map(operator.le, a, b))


def _monomial_lcm(a, b):
    return tuple(map(max, a, b))


def _monomial_sub(a, b):
    return tuple(map(operator.sub, a, b))


def _monomial_add(a, b):
    return tuple(map(operator.add, a, b))


def _monic(terms: dict, domain):
    """(leading monomial, terms scaled so its coefficient is 1)."""
    lm = max(terms, key=grevlex_key)
    inv = domain.inv(terms[lm])
    return lm, {m: domain.coerce(inv * c) for m, c in terms.items()}


def _first_divisor(m, basis, divisors):
    """Index of the first basis entry whose leading monomial divides m, or None.

    divisors memoizes m -> (answer, basis length searched) for a basis that
    only grows by appending.
    """
    index, searched = divisors.get(m, (None, 0))
    if index is None and searched < len(basis):
        for k in range(searched, len(basis)):
            if _monomial_divides(basis[k][0], m):
                index = k
                break
        divisors[m] = (index, len(basis))
    return index


def _reduce_terms(f: dict, basis, domain, divisors) -> dict:
    """Full remainder of f modulo a list of monic (lm, terms) pairs.

    divisors is the divisor memo of ``_first_divisor`` for this basis.
    """
    work = dict(f)
    # (-deg, reversed exponents) is the negated grevlex key: the heap's
    # smallest entry is the grevlex-largest monomial
    heap = [(-sum(m), m[::-1], m) for m in work]
    heapify(heap)
    remainder = {}
    while heap:
        m = heappop(heap)[2]
        c = work.pop(m, None)
        if c is None:
            continue  # cancelled after its key was pushed
        k = _first_divisor(m, basis, divisors)
        if k is None:
            remainder[m] = c
            continue
        lm, g = basis[k]
        shift = _monomial_sub(m, lm)
        for gm, gc in g.items():
            if gm == lm:
                continue
            mm = _monomial_add(gm, shift)
            old = work.get(mm)
            v = domain.coerce((0 if old is None else old) - c * gc)
            if v:
                work[mm] = v
                if old is None:
                    heappush(heap, (-sum(mm), mm[::-1], mm))
            elif old is not None:
                del work[mm]
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
    return Poly(ring, _reduce_terms(f.terms, monic, domain, {}))


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


def _pairs_with_last(basis) -> list:
    """Queue keys (deg lcm, lcm, (i, j)) of the pairs (i, j), j the last index."""
    j = len(basis) - 1
    lmj = basis[j][0]
    keys = []
    for i in range(j):
        lcm = _monomial_lcm(basis[i][0], lmj)
        keys.append((sum(lcm), lcm, (i, j)))
    return keys


def buchberger(gens) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise ValueError("generators live in different rings")
    domain = ring.domain

    basis = []        # monic (lm, terms) pairs
    pending = set()   # every pair of basis indices not yet handled
    queue = []        # heap of the selection keys of the pending pairs
    divisors = {}     # divisor memo of _first_divisor for basis

    def add_last():
        for key in _pairs_with_last(basis):
            pending.add(key[2])
            heappush(queue, key)

    for g in gens:
        basis.append(_monic(g.terms, domain))
        add_last()

    while queue:
        _, lcm, (i, j) = heappop(queue)
        pending.remove((i, j))
        if _monomial_add(basis[i][0], basis[j][0]) == lcm:
            continue  # product criterion: disjoint leading terms
        if any(k != i and k != j and _monomial_divides(basis[k][0], lcm)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k in range(len(basis))):
            continue  # chain criterion: (i, k) and (j, k) have left the queue
        h = _reduce_terms(_s_pair_terms(basis[i], basis[j], domain), basis, domain,
                          divisors)
        if h:
            basis.append(_monic(h, domain))
            add_last()

    # minimalize: drop generators whose leading monomial is divisible by another
    keep = [i for i, (lm, _) in enumerate(basis)
            if not any(j != i and _monomial_divides(other, lm) and (other != lm or j < i)
                       for j, (other, _) in enumerate(basis))]

    # inter-reduce the minimal basis
    reduced = []
    for i in keep:
        r = _reduce_terms(basis[i][1], [basis[k] for k in keep if k != i], domain, {})
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
