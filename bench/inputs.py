"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own code: it uses the standard library
only and never calls into ulrichcert, so the program under test receives
nothing but the generated inputs. The same seed always yields the same
stream of rounds, byte for byte.

Surfaces come from a fixed pool of root sets (``POOL_SEED``), so that every
certificate the benchmark can ask for has a body digest recorded in
``expected.json``. The run seed only chooses the order in which the pool is
walked. Each drawn surface gets its quartic from an exact elimination over
the rationals: the unique quartic singular at the sixteen node points.
"""
from __future__ import annotations

from fractions import Fraction
import itertools
import math
import random

PRIME = 32003
POOL_SEED = 1701_05759
POOL_SIZE = 512            # root sets per kind (symmetric, generic)
GENERIC_MIN_TERMS = 24
VARIABLES = ("X", "Y", "Z", "W")

NODE_LABELS = ((0,),) + tuple(
    (i, j) for i in range(1, 7) for j in range(i + 1, 7))
NODE_TOKENS = tuple("E0" if lab == (0,) else f"E{lab[0]}{lab[1]}" for lab in NODE_LABELS)
DEFAULT_ROOTS = (1, -1, 2, -2, 3, -3)
DEFAULT_TWELVE = ("E0", "E16", "E26", "E36", "E46", "E56",
                  "E12", "E13", "E14", "E15", "E24", "E35")

# Ops per round. A run executes whole rounds only, so every run has the same
# mix of input kinds and the latency quantiles do not jump between clusters.
CERTIFY_ROUND = ("symmetric", "symmetric", "generic", "generic", "generic")
POINT_KS = tuple(range(4, 11))
RECIPE_ROUND = ("twelve",) * 5 + ("invariant",) * 2 + ("eight", "even-eight")
CLI_COMMANDS = ("certify", "nodes", "theta-check", "incidence", "even-eights",
                "horikawa", "descend")


class DrawRefused(ValueError):
    """A drawn surface reduces badly mod p or has no unique quartic."""


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

def roots_key(roots) -> str:
    return ",".join(str(Fraction(r)) for r in roots)


def _sextic(roots):
    coeffs = [Fraction(1)]
    for s in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= s * c
        coeffs = nxt
    return coeffs


def _f0(f, u, v):
    """F0(u, v) for sextic coefficients f = (f0, ..., f6)."""
    uv = u * v
    return (2 * f[0] + f[1] * (u + v) + 2 * f[2] * uv + f[3] * uv * (u + v)
            + 2 * f[4] * uv ** 2 + f[5] * uv ** 2 * (u + v) + 2 * f[6] * uv ** 3)


def node_points(roots):
    """The sixteen nodes over Q, in label order, from the closed form
    (1 : u+v : uv : F0(u, v)/(u-v)^2) and (0 : 0 : 0 : 1) for the origin."""
    roots = [Fraction(r) for r in roots]
    f = _sextic(roots)
    points = [(Fraction(0), Fraction(0), Fraction(0), Fraction(1))]
    for i, j in NODE_LABELS[1:]:
        u, v = roots[i - 1], roots[j - 1]
        if u == v:
            raise DrawRefused("colliding roots")
        points.append((Fraction(1), u + v, u * v, _f0(f, u, v) / (u - v) ** 2))
    return points


def _mod_p(x: Fraction, p: int) -> int:
    if x.denominator % p == 0:
        raise DrawRefused(f"denominator {x.denominator} vanishes mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def check_reduction(roots, p: int = PRIME):
    """Refuse roots that collide mod p, a vanishing u - v or denominator mod
    p, or nodes that collide mod p. Works on residues, so it is cheap."""
    s = [_mod_p(Fraction(r), p) for r in roots]
    if len(set(s)) != 6:
        raise DrawRefused("roots collide mod p")
    f = [1]
    for r in s:
        f = [((f[k - 1] if k else 0) - r * (f[k] if k < len(f) else 0)) % p
             for k in range(len(f) + 1)]
    seen = {(0, 0, 0, 1)}
    for i, j in NODE_LABELS[1:]:
        u, v = s[i - 1], s[j - 1]
        point = (1, (u + v) % p, u * v % p, _f0(f, u, v) * pow(u - v, -2, p) % p)
        if point in seen:
            raise DrawRefused("nodes collide mod p")
        seen.add(point)


def _small_rational(rng, num_range, max_den):
    while True:
        x = Fraction(rng.randint(*num_range), rng.randint(1, max_den))
        if x:
            return x


def surface_pool(kind: str):
    """The fixed list of root sets of one kind that pass the mod-p checks.

    ``symmetric`` roots are (a, -a, b, -b, c, -c) and give a 13-term quartic;
    ``generic`` roots are six unrelated small-height rationals.
    """
    rng = random.Random(f"{POOL_SEED}/{kind}")
    pool, seen = [], set()
    while len(pool) < POOL_SIZE:
        if kind == "symmetric":
            a, b, c = (_small_rational(rng, (1, 15), 3) for _ in range(3))
            roots = (a, -a, b, -b, c, -c)
        else:
            roots = tuple(_small_rational(rng, (-12, 12), 4) for _ in range(6))
            if sorted(roots) == sorted(-r for r in roots):
                continue
        key = tuple(sorted(roots))
        if len(set(roots)) != 6 or key in seen:
            continue
        try:
            check_reduction(roots)
        except DrawRefused:
            continue
        seen.add(key)
        pool.append(roots)
    return pool


def _quartic_monomials():
    """Degree-4 exponent tuples in X, Y, Z, W, highest X power first."""
    return sorted((m for m in itertools.product(range(5), repeat=4) if sum(m) == 4),
                  reverse=True)


def _primitive(row):
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_row(values):
    """Scale rationals to a primitive integer row."""
    den = math.lcm(*(v.denominator for v in values))
    return _primitive([int(v * den) for v in values])


def singular_quartic(roots):
    """Integer coefficients of the unique quartic singular at the sixteen
    nodes, as {exponent tuple: coefficient}, primitive with a positive
    leading coefficient.

    The conditions are dF/dx_v(P) = 0 for every node P and variable v (the
    value F(P) then vanishes by Euler's relation). Each node is scaled to
    integer coordinates and the condition rows are eliminated fraction-free,
    which is exact over Q. A draw whose solution space is not one-dimensional is
    refused.
    """
    mons = _quartic_monomials()
    ncols = len(mons)
    pivots = {}                       # pivot column -> reduced integer row
    for pt in node_points(roots):
        # the conditions are homogeneous, so clear the point's denominators
        pt = _integer_row(pt)
        for v in range(4):
            row = []
            for m in mons:
                val = m[v]
                if val:
                    for i, e in enumerate(m):
                        val *= pt[i] ** (e - (i == v))
                row.append(val)
            row = _primitive(row)
            for c in sorted(pivots):
                if row[c]:
                    prow = pivots[c]
                    a, b = prow[c], row[c]
                    row = _primitive([a * x - b * y for x, y in zip(row, prow)])
            lead = next((c for c in range(ncols) if row[c]), None)
            if lead is not None:
                pivots[lead] = row
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        raise DrawRefused(f"the singular quartics form a space of dimension {len(free)}")
    # back-substitute with the free coordinate set to 1
    x = [Fraction(0)] * ncols
    x[free[0]] = Fraction(1)
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        x[c] = Fraction(-sum(row[k] * x[k] for k in range(c + 1, ncols)), row[c])
    coeffs = _integer_row(x)
    lead = next(v for v in coeffs if v)
    if lead < 0:
        coeffs = [-v for v in coeffs]
    if all(v % PRIME == 0 for v in coeffs):
        raise DrawRefused("the quartic vanishes mod p")
    return {m: c for m, c in zip(mons, coeffs) if c}


def quartic_text(coeffs: dict) -> str:
    """Render integer coefficients in the ``7056*X^4-2016*X^2*Y^2`` shape."""
    pieces = []
    for mon in sorted(coeffs, reverse=True):
        c = coeffs[mon]
        factors = [] if abs(c) == 1 else [str(abs(c))]
        for name, e in zip(VARIABLES, mon):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        sign = "-" if c < 0 else ("+" if pieces else "")
        pieces.append(sign + "*".join(factors))
    return "".join(pieces)


def surface(kind: str, index: int, pool) -> dict:
    """Surface ``index`` of ``pool`` (a ``surface_pool(kind)``) with its
    derived quartic; raises DrawRefused."""
    roots = pool[index]
    coeffs = singular_quartic(roots)
    if kind == "generic" and len(coeffs) < GENERIC_MIN_TERMS:
        raise DrawRefused(f"generic quartic has only {len(coeffs)} terms")
    return {"kind": kind, "index": index, "roots": roots_key(roots),
            "quartic": quartic_text(coeffs), "terms": len(coeffs)}


def _surface_stream(rng, kinds):
    """Endless surfaces of the given kinds, each pool walked in a seeded
    order; a pool is walked again only after all of it has been used."""
    pools = {kind: surface_pool(kind) for kind in set(kinds)}
    orders = {}
    cursors = {kind: 0 for kind in pools}

    def draw(kind):
        while True:
            if cursors[kind] % POOL_SIZE == 0:
                orders[kind] = rng.sample(range(POOL_SIZE), POOL_SIZE)
            index = orders[kind][cursors[kind] % POOL_SIZE]
            cursors[kind] += 1
            try:
                return surface(kind, index, pools[kind])
            except DrawRefused:
                continue
    return draw


# ---------------------------------------------------------------------------
# Node sets, recipes and eights
# ---------------------------------------------------------------------------

def classical_even_eights():
    """The 30 even eights: the affine hyperplanes of the two-torsion group.

    Node E_ij is the class e_i + e_j in F_2^6 / (1,...,1); a hyperplane is
    cut out by an even subset {k, l}, whose pairing with e_i + e_j is the
    number of i, j in {k, l} mod 2. Computed from the group structure alone,
    never from the program.
    """
    eights = []
    for k, l in itertools.combinations(range(1, 7), 2):
        zero = [tok for lab, tok in zip(NODE_LABELS, NODE_TOKENS)
                if len(lab) == 1 or (lab[0] in (k, l)) == (lab[1] in (k, l))]
        one = [tok for tok in NODE_TOKENS if tok not in zero]
        eights.extend((tuple(zero), tuple(one)))
    return eights


def rounds(workload: str, seed: int, invariant_recipes=()):
    """Endless generator of rounds (lists of op inputs) for a workload.

    ``invariant_recipes`` lists the twelve-node recipes recorded as
    invariant; recipe-sweep oversamples them so the h0 path runs.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "certify-batch":
        draw = _surface_stream(rng, CERTIFY_ROUND)
        while True:
            kinds = list(CERTIFY_ROUND)
            rng.shuffle(kinds)
            yield [{"op": "certify", **draw(kind)} for kind in kinds]
    elif workload == "point-ideals":
        while True:
            ks = list(POINT_KS)
            rng.shuffle(ks)
            yield [{"op": "points", "k": k, "labels": sorted(rng.sample(NODE_TOKENS, k),
                                                               key=NODE_TOKENS.index)}
                   for k in ks]
    elif workload == "recipe-sweep":
        eights = classical_even_eights()
        invariant = sorted(invariant_recipes)
        if not invariant:
            raise ValueError("recipe-sweep needs the recorded invariant recipes")
        while True:
            kinds = list(RECIPE_ROUND)
            rng.shuffle(kinds)
            batch = []
            for kind in kinds:
                if kind == "twelve":
                    labels = sorted(rng.sample(NODE_TOKENS, 12), key=NODE_TOKENS.index)
                    batch.append({"op": "twelve", "labels": labels})
                elif kind == "invariant":
                    batch.append({"op": "twelve", "labels": list(rng.choice(invariant))})
                elif kind == "eight":
                    labels = sorted(rng.sample(NODE_TOKENS, 8), key=NODE_TOKENS.index)
                    batch.append({"op": "eight", "labels": labels})
                else:
                    batch.append({"op": "eight", "labels": list(rng.choice(eights))})
            yield batch
    elif workload == "cli-cold":
        draw = _surface_stream(rng, ("symmetric", "generic"))
        n = 0
        while True:
            srf = draw("symmetric" if n % 2 == 0 else "generic")
            yield [{"op": "cli", "command": cmd, "pass": n, **srf} for cmd in CLI_COMMANDS]
            n += 1
    else:
        raise ValueError(f"unknown workload {workload!r}")


def config_text(srf: dict) -> str:
    """INI configuration for the CLI with an inline quartic."""
    return (f"[surface]\nprime = {PRIME}\nroots = {srf['roots'].replace(',', ', ')}\n"
            f"quartic = inline:{srf['quartic']}\n\n"
            f"[bundle]\nrecipe = twelve-nodes\nlabels = {', '.join(DEFAULT_TWELVE)}\n")
