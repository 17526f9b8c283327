"""Buchberger Groebner bases over a field, with normal forms, ideal
membership, and Hilbert-series codimension/degree extraction.

Packed monomials. Inside ``buchberger``, ``normal_form`` and
``s_polynomial`` a monomial in n variables is one Python int made of 2n
fields of ``_FIELD_BITS`` bits. From the top down they hold the partial sums
deg, deg - e[n-1], deg - e[n-1] - e[n-2], ..., e[0], and below those the
exponents e[n-1], ..., e[0]. Monomials are packed once on entry and unpacked
once on exit; every other module keeps exponent tuples.

- Every field is a linear function of the exponents, so integer ``+``
  multiplies two monomials and ``m - lm`` is the shift that carries a
  leading monomial lm onto m. A tail term gm of lm's polynomial lands on
  m + (gm - lm), so each basis entry keeps its tail as (gm - lm,
  coefficient) pairs.
- Integer order is grevlex. The top field compares degrees; at equal degree
  the next fields compare deg - e[n-1], deg - e[n-1] - e[n-2], ..., which is
  grevlex's rule that the smaller exponent of the last variable wins. The
  partial sums determine the monomial, so the exponent fields never decide a
  comparison.
- The top bit of each exponent field is a guard bit. With G the mask of the
  guard bits, a divides b iff ((b | G) - a) & G == G: setting b's guard bits
  lets each field subtract on its own with no borrow into the next, and a
  field keeps its guard bit exactly when b's exponent is at least a's. The
  lcm takes each exponent field from the side this test finds larger and
  rebuilds the partial sums with one multiplication.
- All of this holds while every degree stays below ``_BOUND`` =
  2**(_FIELD_BITS - 1). The kernel raises ValueError, naming the monomial,
  when an input monomial or the lcm of an S-pair reaches it. Checking the
  lcm suffices because grevlex is degree compatible: no monomial of a pair's
  reduction exceeds the lcm's degree. Two degrees below the bound sum to
  less than 2**_FIELD_BITS, so even an lcm that fails the check has exact
  fields.

Echelon input. Before any pair is formed, ``linalg.echelon``, keyed by
packed monomial, takes the input to the reduced row echelon form of its
linear span: monic rows with distinct leading monomials, no row's tail
holding another's. Generators that share a leading monomial, or are
multiples of one another, therefore enter the pair queue once.

The basis then only grows, by appending. Two structures keep the choice of
S-pair and of divisor free of scans, each choosing exactly what a scan would
choose:

- The S-pair queue is a heap of (packed lcm, (i, j)), computed once when the
  pair is created, with the set of queued pairs beside it for the chain
  criterion's "still queued" test. Leading monomials never change, so the
  stored keys stay exact, and they are unique, so each pop gives the pair
  whose lcm is grevlex-smallest, ties broken by the pair indices: the normal
  selection strategy. Between pairs of one lcm degree the tie-break is
  therefore grevlex on the lcm, then the indices.
- A memo maps each monomial met in a reduction to the first basis index
  whose leading monomial divides it (or None) and the basis length
  searched. Appending never changes the first divisor once found, and a
  None answer is extended by searching only the entries appended since, so
  the memo picks the same divisor as a scan from the start. The pair loop
  keeps one memo, the final pass another, and each normal form starts an
  empty one.

A remainder under construction is a dict from packed monomial to a
coefficient that is not yet normalised: an S-pair and a reduction step store
plain sums such as ``get(mm, 0) - c * gc``, which may be zero in the field.
Its next term is the dict's largest key (packed order is grevlex, so ``max``
finds it in one pass at C speed), and that term is normalised once, when it
is popped, and skipped if it is zero. Only normalised, nonzero coefficients
reach the remainder.

Reduced output. The final pass, ``_reduced_basis``, walks the Groebner basis
in ascending order of leading monomial, drops each entry whose leading
monomial a kept entry divides and reduces the tail of every other entry by
the kept ones. It is skipped when the echelon rows share one degree and no
S-pair added a generator: a leading monomial divides no monomial of lower
degree, and one of its own degree only by equalling it, so those rows are
already the reduced basis, in ascending order.

Pairs are pruned with the standard product and chain criteria; for the chain
criterion a pair counts as handled once it has left the queue. Output is the
reduced Groebner basis, which is unique for the fixed grevlex order, so the
result is independent of generator order.

Hilbert series. ``hilbert_degree_codim`` reads (codim, degree) off the
numerator of the Hilbert series of the minimal leading-term ideal, which
``_k_numerator`` computes by the pivot recursion. ``_hilbert_numerator``
keeps that numerator for the life of the process, one entry per leading-term
ideal (50 entries after 2,100 point ideals of 4 to 10 nodes of the bundled
surface); the subproblems of the recursion go into a dict memo that lives
for one call.

The tuples made for every basis and Hilbert series, here and in the
``polynomials`` calls on that path, come from lists. ``tuple()`` of a
generator allocates ten slots and then resizes to the final length, so it
never takes a tuple from the free list of that length but returns one to it
when freed. Over a long run those free lists fill to their cap of 2,000
entries each, which only a full collection empties, and resident memory
climbs; ``tuple([...])`` allocates at the final length and reuses what that
free list holds.
"""
from __future__ import annotations

from collections import namedtuple
import functools
from heapq import heappop, heappush
import itertools
import math
import operator

from . import _checked_make
from .linalg import echelon
from .polynomials import Poly

_FIELD_BITS = 16
_BOUND = 1 << (_FIELD_BITS - 1)   # every packed degree stays below this
_FIELD_MASK = (1 << _FIELD_BITS) - 1


@functools.lru_cache(maxsize=None)
def _layout(nvars: int):
    """(weights, guard, exponents, sums, degree shift): the packing for nvars
    variables.

    A monomial packs to sum(e[k] * weights[k]). guard holds the guard bits
    and exponents masks the exponent fields. The exponent fields alone, times
    sums, give the partial-sum fields, plus carries above them. The packed
    value shifted right by the degree shift is the degree.
    """
    width = _FIELD_BITS
    sums = sum(1 << (nvars + j) * width for j in range(nvars))
    weights = tuple((1 << k * width) + sum(1 << (nvars + j) * width for j in range(k, nvars))
                    for k in range(nvars))
    guard = sum(1 << (k * width + width - 1) for k in range(nvars))
    return weights, guard, (1 << nvars * width) - 1, sums, (2 * nvars - 1) * width


def _check_degree(m) -> None:
    """Raise ValueError if exponent tuple m reaches the packing bound."""
    if sum(m) >= _BOUND:
        raise ValueError(f"monomial {m} has degree {sum(m)}; the Groebner kernel "
                         f"packs degrees below {_BOUND}")


def _pack(terms: dict, layout) -> dict:
    """terms with each exponent tuple packed into one int."""
    weights, degree_shift = layout[0], layout[4]
    packed = {sum(map(operator.mul, m, weights)): c for m, c in terms.items()}
    if packed and max(packed) >> degree_shift >= _BOUND:
        _check_degree(max(terms, key=sum))
    return packed


def _unpack(m: int, nvars: int) -> tuple:
    """The exponent tuple of a packed monomial."""
    return tuple([(m >> k * _FIELD_BITS) & _FIELD_MASK for k in range(nvars)])


def _poly(ring, terms: dict) -> Poly:
    """The polynomial of packed terms."""
    # Not PolyRing.poly: the kernel's terms are already coerced, distinct and
    # nonzero, and this runs for every element of every basis the kernel returns.
    return Poly(ring, {_unpack(m, ring.nvars): c for m, c in terms.items()})


def _lcm(a: int, b: int, layout) -> int:
    """Packed lcm of two packed monomials, within the degree bound.

    Each exponent field comes from the side that the guard test finds larger,
    and one multiplication rebuilds the partial sums. Both degrees are below
    _BOUND, so each partial sum of the lcm fits in its field.
    """
    weights, guard, exponents, sums, degree_shift = layout
    pick = ((((a | guard) - b) & guard) >> (_FIELD_BITS - 1)) * _FIELD_MASK   # fields a >= b
    e = (a & pick) | (b & exponents & ~pick)
    lcm = e | (e * sums) & ((1 << degree_shift + _FIELD_BITS) - 1)
    if lcm >> degree_shift >= _BOUND:
        _check_degree(_unpack(lcm, len(weights)))
    return lcm


def _monic(terms: dict, domain):
    """(leading monomial, tail) of packed terms scaled to a leading coefficient
    of 1; the tail lists (m - leading monomial, coefficient) for the other m."""
    lm = max(terms)
    inv = domain.inv(terms[lm])
    return lm, [(m - lm, domain.coerce(inv * c)) for m, c in terms.items() if m != lm]


def _terms(entry, domain) -> dict:
    """Packed terms of a monic (lm, tail) pair."""
    lm, tail = entry
    terms = {lm: domain.coerce(1)}
    for d, c in tail:
        terms[lm + d] = c
    return terms


def _first_divisor(m: int, basis, guard: int, divisors):
    """Index of the first basis entry whose leading monomial divides m, or None.

    divisors memoizes m -> (answer, basis length searched) for a basis that
    only grows by appending.
    """
    index, searched = divisors.get(m, (None, 0))
    if index is None and searched < len(basis):
        mg = m | guard   # the guard test, with m's guard bits set once
        for k in range(searched, len(basis)):
            if (mg - basis[k][0]) & guard == guard:
                index = k
                break
        divisors[m] = (index, len(basis))
    return index


def _reduce(f: dict, basis, domain, guard: int, divisors) -> dict:
    """Full remainder of packed terms f modulo a list of monic (lm, tail) pairs.

    divisors is the divisor memo of ``_first_divisor`` for this basis. The
    work dict holds unnormalised sums; a term is normalised once, when it is
    popped, and dropped if it is zero in the field.
    """
    work = dict(f)
    remainder = {}
    coerce, get = domain.coerce, work.get
    while work:
        m = max(work)   # packed order is grevlex
        c = coerce(work.pop(m))
        if not c:
            continue
        k = _first_divisor(m, basis, guard, divisors)
        if k is None:
            remainder[m] = c
            continue
        for d, gc in basis[k][1]:
            mm = m + d
            work[mm] = get(mm, 0) - c * gc
    return remainder


class GroebnerBasis(namedtuple("GroebnerBasis", "generators")):
    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, generators):
        if not generators:
            raise ValueError("no generators")
        return super().__new__(cls, generators)

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
    ring = f.ring
    if any(g.ring != ring for g in gens):
        raise ValueError("polynomial and basis live in different rings")
    domain, layout = ring.domain, _layout(ring.nvars)
    monic = [_monic(_pack(g.terms, layout), domain) for g in gens]
    return _poly(ring, _reduce(_pack(f.terms, layout), monic, domain, layout[1], {}))


def _s_pair(f, g, lcm: int) -> dict:
    """Packed S-polynomial of two monic (lm, tail) pairs with the given lcm,
    its coefficients not yet normalised, as in the work dict of ``_reduce``."""
    out = {lcm + d: c for d, c in f[1]}
    for d, c in g[1]:
        mm = lcm + d
        out[mm] = out.get(mm, 0) - c
    return out


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """S-polynomial of two nonzero polynomials of one ring, from their monic
    forms."""
    if f.is_zero() or g.is_zero():
        raise ValueError("zero polynomial has no leading monomial")
    ring = f.ring
    if g.ring != ring:
        raise ValueError("polynomials live in different rings")
    domain, layout = ring.domain, _layout(ring.nvars)
    f, g = _monic(_pack(f.terms, layout), domain), _monic(_pack(g.terms, layout), domain)
    s = _s_pair(f, g, _lcm(f[0], g[0], layout))
    return _poly(ring, _reduce(s, [], domain, layout[1], {}))   # normalises s


def _echelon(polys, domain) -> list:
    """Monic (lm, tail) pairs, ascending by lm, that form the reduced row
    echelon form of the linear span of packed term dicts (``linalg.echelon``)."""
    rows = echelon(polys, domain)
    return [(lm, [(m - lm, c) for m, c in sorted(rows[lm].items(), reverse=True)])
            for lm in sorted(rows)]


def _reduced_basis(basis, domain, guard: int) -> list:
    """The reduced Groebner basis, as monic (lm, tail) pairs in ascending
    order, of a Groebner basis given as monic (lm, tail) pairs.

    The entries are taken in ascending order of leading monomial:

    - an entry whose leading monomial a kept one divides is dropped. Each
      entry dropped has its leading monomial divisible by a kept one, so the
      kept leading monomials still generate the leading-term ideal;
    - any other entry is kept with its tail fully reduced by the kept ones.
      A monomial divisible by a leading monomial is no smaller than it, so
      every basis entry whose leading monomial divides a tail monomial was
      taken earlier, and is kept or has a kept divisor.
    """
    kept, divisors = [], {}   # divisors: the memo of _first_divisor for kept
    for lm, tail in sorted(basis, key=operator.itemgetter(0)):
        if _first_divisor(lm, kept, guard, divisors) is None:
            r = _reduce({lm + d: c for d, c in tail}, kept, domain, guard, divisors)
            kept.append((lm, [(m - lm, c) for m, c in r.items()]))
    return kept


def buchberger(gens) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise ValueError("generators live in different rings")
    domain, layout = ring.domain, _layout(ring.nvars)
    guard = layout[1]

    divisors = {}     # divisor memo of _first_divisor for basis
    basis = _echelon([_pack(g.terms, layout) for g in gens], domain)
    # rows whose leading monomials share one degree are already inter-reduced
    reduced = basis[0][0] >> layout[4] == basis[-1][0] >> layout[4]
    size = len(basis)
    pending = set()   # every pair of basis indices not yet handled
    queue = []        # heap of (lcm, pair) of the pending pairs

    def add_pairs(j):
        for i in range(j):
            pending.add((i, j))
            heappush(queue, (_lcm(basis[i][0], basis[j][0], layout), (i, j)))

    for j in range(len(basis)):
        add_pairs(j)

    while queue:
        lcm, (i, j) = heappop(queue)
        pending.remove((i, j))
        if basis[i][0] + basis[j][0] == lcm:
            continue  # product criterion: disjoint leading terms
        lcm_guarded = lcm | guard   # the guard test, with lcm's guard bits set once
        if any((lcm_guarded - lmk) & guard == guard and k != i and k != j
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k, (lmk, _) in enumerate(basis)):
            continue  # chain criterion: (i, k) and (j, k) have left the queue
        h = _reduce(_s_pair(basis[i], basis[j], lcm), basis, domain, guard, divisors)
        if h:
            basis.append(_monic(h, domain))
            add_pairs(len(basis) - 1)

    if not reduced or len(basis) > size:
        basis = _reduced_basis(basis, domain, guard)
    return GroebnerBasis(tuple([_poly(ring, _terms(e, domain)) for e in basis]))


# ---------------------------------------------------------------------------
# Hilbert series of the leading-term ideal
# ---------------------------------------------------------------------------

def _monomial_divides(a, b) -> bool:
    """True iff exponent tuple a divides exponent tuple b."""
    return all(map(operator.le, a, b))


def _minimalize(mons):
    mons = sorted(set(mons), key=lambda m: (sum(m), m))
    out = []
    for m in mons:
        if not any(_monomial_divides(o, m) for o in out):
            out.append(m)
    return tuple(out)


def _k_numerator(mons, memo):
    """Numerator N(t) of the Hilbert series N(t)/(1-t)^n of R/(mons).

    mons is a minimal generating set sorted as ``_minimalize`` returns it,
    and memo maps the subproblems already solved to their numerators.
    Returned as a tuple of (degree, coefficient) pairs. Uses the standard
    pivot recursion N(I + (g)) = N(I) - t^deg(g) * N(I : g), with g the last
    generator, so I is generated by the others.
    """
    if mons in memo:
        return memo[mons]
    if not mons:
        return ((0, 1),)
    if any(sum(m) == 0 for m in mons):
        return ()
    if all(sum(m) == 1 for m in mons):
        k = len(mons)
        return tuple([(d, (-1) ** d * math.comb(k, d)) for d in range(k + 1)])
    g, rest = mons[-1], mons[:-1]
    out = {}
    for d, c in _k_numerator(rest, memo):
        out[d] = out.get(d, 0) + c
    dg = sum(g)
    colon = _minimalize([tuple([max(a - b, 0) for a, b in zip(m, g)]) for m in rest])
    for d, c in _k_numerator(colon, memo):
        out[d + dg] = out.get(d + dg, 0) - c
    memo[mons] = numerator = tuple(sorted((d, c) for d, c in out.items() if c))
    return numerator


@functools.lru_cache(maxsize=None)
def _hilbert_numerator(lts):
    """``_k_numerator`` of a minimal leading-term ideal, kept for the life of
    the process: one entry per ideal, its subproblems dropped after the call."""
    return _k_numerator(lts, {})


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
    lts = _minimalize(gb.leading_monomials())
    numerator = dict(_hilbert_numerator(lts))
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
