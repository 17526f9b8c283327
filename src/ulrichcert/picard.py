"""Exact arithmetic in the rank-17 Picard Q-space of the Kummer surface.

The fixed basis is (L, E_0, E_12, E_13, ..., E_56) with Gram data L^2 = 4,
L.E = 0, E_a.E_b = -2 delta_ab. Tropes are the half-integer classes

    T_i   = (L - E_0 - sum_{k != i} E_ik) / 2
    T_ij6 = (L - E_i6 - E_j6 - E_ij - E_lm - E_mn - E_ln) / 2

(i < j <= 5, {l, m, n} the complement of {i, j} in {1..5}). The fixed-point
free switch involution acts on the lattice by exchanging each node with a
trope according to a sixteen-row table and sending L to 3L - E_0 - sum E_ij;
its involution and isometry properties are asserted after construction
rather than assumed.

Every coefficient has denominator 1 or 2, so classes are stored as doubled
integer coordinates and the switch involution theta as 2 theta, a
``linalg.ScaledInvolution`` of scale 2 (``lattices`` uses the same record at
scale 1); all lattice arithmetic is then exact integer arithmetic. Only this
module reads or writes doubled coordinates: ``_doubled_class`` builds a class
from its L value and node values, ``doubled_support`` reads them back, and
``_integral`` is the one rule that turns an exact doubled value into an int.
"""
from __future__ import annotations

from collections import namedtuple
import functools

from . import _checked_make
from .labels import (DEFAULT_TWELVE, HALF_EVEN_EIGHT, NODE_LABELS, TROPE_LABELS, TWELVE_NODES,
                     join_terms, node_token, parse_node_token, parse_number, parse_trope_token,
                     split_terms, validate_node_label)
from .linalg import ScaledInvolution, hermite_normal_form, hnf_contains, identity, matvec, transpose

BASIS = ("L",) + NODE_LABELS
_INDEX = {name: k for k, name in enumerate(BASIS)}
RANK = len(BASIS)

# Gram diagonal: L^2 = 4, each node squares to -2, mixed products vanish.
_GRAM_DIAG = (4,) + (-2,) * 16
_GRAM = tuple(tuple(g * x for x in row) for g, row in zip(_GRAM_DIAG, identity(RANK)))


# fractions (and decimal, which it loads) is imported only where a Fraction
# is built or checked, so the integer lattice checks never load it

def _integral(doubled, scale=1) -> int:
    """An exact doubled coefficient, ``doubled / scale``, as an int; the
    coefficient itself, half of it, must have denominator 1 or 2."""
    numerator, denominator = doubled.as_integer_ratio()
    whole, rest = divmod(numerator, denominator * scale)
    if rest:
        from fractions import Fraction
        raise ValueError(f"coefficient {Fraction(numerator, 2 * denominator * scale)} "
                         f"has denominator outside {{1, 2}}")
    return whole


def _rational(x):
    """A coefficient or scalar, which must be an int (bool included) or a Fraction."""
    if not isinstance(x, int):
        from fractions import Fraction
        if not isinstance(x, Fraction):
            raise TypeError(f"a divisor coefficient must be an int or a Fraction, "
                            f"not {type(x).__name__}")
    return x


class DivisorClass:
    """An element of the Picard Q-space; coefficients have denominator 1 or 2.

    ``doubled`` holds twice the coefficients in the basis BASIS, as integers.
    Coefficients and scalars are ints or ``Fraction``s; anything else, a
    string or a float included, is a ``TypeError``.
    """

    __slots__ = ("doubled",)

    def __init__(self, coeffs):
        doubled = tuple(_integral(2 * _rational(c)) for c in coeffs)
        if len(doubled) != RANK:
            raise ValueError(f"expected {RANK} coefficients")
        self.doubled = doubled

    @classmethod
    def from_doubled(cls, doubled) -> "DivisorClass":
        d = cls.__new__(cls)
        d.doubled = tuple(doubled)
        return d

    def __add__(self, other):
        return DivisorClass.from_doubled(a + b for a, b in zip(self.doubled, other.doubled))

    def __sub__(self, other):
        return DivisorClass.from_doubled(a - b for a, b in zip(self.doubled, other.doubled))

    def __neg__(self):
        return DivisorClass.from_doubled(-a for a in self.doubled)

    def __rmul__(self, scalar):
        return DivisorClass.from_doubled(_integral(_rational(scalar) * a) for a in self.doubled)

    def __eq__(self, other):
        return isinstance(other, DivisorClass) and other.doubled == self.doubled

    def __hash__(self):
        return hash(self.doubled)

    def __repr__(self):
        return f"DivisorClass({format_divisor(self)})"


def _doubled_class(at_l, at_node=0, labels=()) -> DivisorClass:
    """The class with doubled coordinate at_l at L, at_node at each listed
    node and 0 at every other node."""
    doubled = [at_l] + [0] * (RANK - 1)
    for label in labels:
        doubled[_INDEX[label]] = at_node
    return DivisorClass.from_doubled(doubled)


def doubled_support(d: DivisorClass):
    """The inverse of ``_doubled_class``: the doubled L coordinate of d, and
    its node labels grouped by nonzero doubled coordinate, in label order."""
    support = {}
    for label, c in zip(NODE_LABELS, d.doubled[1:]):
        if c:
            support[c] = support.get(c, ()) + (label,)
    return d.doubled[0], support


def zero_class() -> DivisorClass:
    return _doubled_class(0)


def hyperplane_class() -> DivisorClass:
    """L, the pullback of the P^3 hyperplane through the quartic model."""
    return _doubled_class(2)


def node_class(label) -> DivisorClass:
    return _doubled_class(0, 2, [validate_node_label(label)])


def polarization() -> DivisorClass:
    """H = 2L - (1/2) sum of all sixteen nodes, the degree-8 polarization."""
    return _doubled_class(4, -1, NODE_LABELS)


def _pairing4(a: DivisorClass, b: DivisorClass) -> int:
    """Four times a.b, the Gram sum over the doubled coordinates."""
    return sum(g * x * y for g, x, y in zip(_GRAM_DIAG, a.doubled, b.doubled))


def pairing(a: DivisorClass, b: DivisorClass) -> Fraction:
    from fractions import Fraction
    return Fraction(_pairing4(a, b), 4)


def trope(label) -> DivisorClass:
    """The half-integer trope class for an odd (T_i) or even (T_ij6) label."""
    if label not in TROPE_LABELS:
        raise ValueError(f"invalid trope label {label!r}")
    if isinstance(label, int):
        nodes = [(0,)] + [(label, k) for k in range(1, 7) if k != label]
    else:
        i, j, _ = label
        l, m, n = (k for k in range(1, 6) if k not in (i, j))
        nodes = [(i, 6), (j, 6), (i, j), (l, m), (m, n), (l, n)]
    return _doubled_class(1, -1, [tuple(sorted(node)) for node in nodes])


# Node <-> trope exchange table of the switch attached to the even
# theta-characteristic built from the Weierstrass indices {4, 5, 6}.
THETA_SWAP = {
    (0,): (4, 5, 6),
    (1, 2): 3,
    (1, 3): 2,
    (1, 4): (1, 5, 6),
    (1, 5): (1, 4, 6),
    (1, 6): (2, 3, 6),
    (2, 3): 1,
    (2, 4): (2, 5, 6),
    (2, 5): (2, 4, 6),
    (2, 6): (1, 3, 6),
    (3, 4): (3, 5, 6),
    (3, 5): (3, 4, 6),
    (3, 6): (1, 2, 6),
    (4, 5): 6,
    (4, 6): 5,
    (5, 6): 4,
}


class Involution(ScaledInvolution):
    """A linear involutive isometry of the Picard Q-space.

    ``matrix`` is A = 2 theta in the basis BASIS, an integer matrix acting on
    doubled coordinates, checked as a scale-2 involution of the Gram form:
    A A = 4 I and A^T G A = 4 G.
    """

    __slots__ = ()

    def __init__(self, columns):
        """columns[k] is the image of basis vector k, as a DivisorClass."""
        super().__init__(transpose([c.doubled for c in columns]), _GRAM, 2)

    def apply(self, d: DivisorClass) -> DivisorClass:
        return DivisorClass.from_doubled(_integral(x, 2) for x in matvec(self.matrix, d.doubled))


def build_theta_star() -> Involution:
    """Assemble the switch involution from the exchange table.

    The image of L is 3L - E_0 - sum E_ij; each node maps to its paired
    trope. Involutivity and isometry are verified during construction, which
    doubles as a consistency check on the table itself.
    """
    image_of_l = _doubled_class(6, -2, NODE_LABELS)
    return Involution([image_of_l] + [trope(THETA_SWAP[label]) for label in NODE_LABELS])


def is_invariant(inv: Involution, d: DivisorClass) -> bool:
    """theta d = d, tested on the doubled coordinates of d."""
    return inv.fixes(d.doubled)


def chi_k3(d: DivisorClass) -> Fraction:
    """Euler characteristic 2 + d^2/2 on a K3 surface."""
    return 2 + pairing(d, d) / 2


class PolarizedSurfaceParams(namedtuple("PolarizedSurfaceParams", "s")):
    """Degree parameter s with H^2 = 2s; the reference surface has s = 4."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, s=4):
        if type(s) is not int or s < 1:
            raise ValueError("s must be a positive integer")
        return super().__new__(cls, s)


def numerical_ulrich(params: PolarizedSurfaceParams, h: DivisorClass,
                     m: DivisorClass) -> bool:
    """The numerical conditions h.m = 3s and m^2 = 4s - 4."""
    s = params.s
    if pairing(h, h) != 2 * s:
        raise ValueError(f"polarization square {pairing(h, h)} != 2s = {2 * s}")
    return pairing(h, m) == 3 * s and pairing(m, m) == 4 * s - 4


# ---------------------------------------------------------------------------
# Bundle recipes
# ---------------------------------------------------------------------------

class BundleRecipe(namedtuple("BundleRecipe", "kind labels")):
    """How to build the candidate class M from L and node classes."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, kind=TWELVE_NODES, labels=DEFAULT_TWELVE):
        if kind not in (TWELVE_NODES, HALF_EVEN_EIGHT):
            raise ValueError(f"unknown recipe kind {kind!r}")
        labels = tuple(validate_node_label(l) for l in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("recipe labels must be distinct")
        return super().__new__(cls, kind, labels)

    def divisor(self) -> DivisorClass:
        """3L minus each recipe node (twelve-nodes), or 2L minus half of each
        (half-even-eight)."""
        at_l, at_node = (6, -2) if self.kind == TWELVE_NODES else (4, -1)
        return _doubled_class(at_l, at_node, self.labels)

    def tokens(self):
        return tuple(node_token(l) for l in self.labels)


def checked_recipe(kind, tokens) -> BundleRecipe:
    """The recipe of ``kind`` over node tokens such as "E12": 12 tokens for
    twelve-nodes, 8 for half-even-eight. BundleRecipe itself accepts any count."""
    if not isinstance(tokens, (list, tuple)) or not all(isinstance(t, str) for t in tokens):
        raise ValueError(f"recipe.labels is not a list of strings: {tokens!r}")
    recipe = BundleRecipe(kind, map(parse_node_token, tokens))
    expected = 12 if recipe.kind == TWELVE_NODES else 8
    if len(recipe.labels) != expected:
        raise ValueError(f"recipe kind {recipe.kind!r} needs exactly "
                         f"{expected} labels, got {len(recipe.labels)}")
    return recipe


def default_recipe() -> BundleRecipe:
    return BundleRecipe()


# ---------------------------------------------------------------------------
# Even eights
# ---------------------------------------------------------------------------

def default_picard_generators():
    """Working generator set {L} + nodes + tropes for divisibility questions.

    This is a declared subgroup of the Picard group, not asserted to be all
    of it; divisibility answers are relative to it.
    """
    gens = [hyperplane_class()]
    gens.extend(node_class(label) for label in NODE_LABELS)
    gens.extend(trope(label) for label in TROPE_LABELS)
    return gens


def _f2_basis(rows):
    """A basis of the F2 span of integer rows taken mod 2, as bitmasks with
    bit k for coordinate k; the basis elements have distinct leading bits."""
    basis = []
    for row in rows:
        mask = sum(1 << k for k, x in enumerate(row) if x % 2)
        for b in basis:
            mask = min(mask, mask ^ b)
        if mask:
            basis.append(mask)
            basis.sort(reverse=True)
    return basis


class EvenEightTester:
    """Divisibility-by-2 tests against a fixed generator set, HNF-backed."""

    def __init__(self, generators=None):
        gens = list(generators) if generators is not None else default_picard_generators()
        if not gens:
            raise ValueError("empty generator list")
        self._hnf, self._pivots = hermite_normal_form([g.doubled for g in gens])

    def test(self, labels) -> bool:
        labels = [validate_node_label(l) for l in labels]
        if len(set(labels)) != 8:
            raise ValueError("an even-eight test needs exactly 8 distinct node labels")
        return hnf_contains(self._hnf, self._pivots, _doubled_class(0, 1, labels).doubled)

    def sweep(self):
        """All positive 8-subsets of the sixteen node labels, in
        itertools.combinations(NODE_LABELS, 8) order.

        A half node sum has doubled coordinates v with entries 0 and 1, and v
        reduces mod 2 to itself; so if v lies in the span, v is a word of the
        F2 span of the HNF rows mod 2. The sweep enumerates the 2^r words of
        that span (r its rank), keeps those with L-bit 0 and node weight 8,
        and confirms each candidate exactly with hnf_contains.
        """
        words = [0]
        for b in _f2_basis(self._hnf):
            words += [w ^ b for w in words]
        eights = sorted([k for k in range(1, RANK) if w >> k & 1]
                        for w in words if not w & 1 and w.bit_count() == 8)
        candidates = ([BASIS[k] for k in eight] for eight in eights)
        return [frozenset(labels) for labels in candidates
                if hnf_contains(self._hnf, self._pivots, _doubled_class(0, 1, labels).doubled)]


@functools.cache
def default_even_eight_tester() -> EvenEightTester:
    """The tester for default_picard_generators(), built once per process;
    the tester is never mutated after construction."""
    return EvenEightTester()


def even_eight_test(labels) -> bool:
    """True iff half the sum of the eight nodes lies in the span of
    default_picard_generators()."""
    return default_even_eight_tester().test(labels)


# ---------------------------------------------------------------------------
# Incidence configuration
# ---------------------------------------------------------------------------

def incidence_table():
    """Pairing values (node, trope), a 16 x 16 table of zeros and ones."""
    tropes = {tl: trope(tl) for tl in TROPE_LABELS}
    table = {}
    for nl in NODE_LABELS:
        e = node_class(nl)
        for tl, t in tropes.items():
            quarters = _pairing4(e, t)
            assert quarters % 4 == 0
            table[(nl, tl)] = quarters // 4
    return table


def incidence_is_16_6(table) -> bool:
    """Every node lies on six tropes and every trope contains six nodes."""
    rows = [sum(table[(nl, tl)] for tl in TROPE_LABELS) for nl in NODE_LABELS]
    columns = [sum(table[(nl, tl)] for nl in NODE_LABELS) for tl in TROPE_LABELS]
    return set(rows + columns) == {6} and all(v in (0, 1) for v in table.values())


# ---------------------------------------------------------------------------
# Divisor expressions
# ---------------------------------------------------------------------------

def parse_divisor(text: str) -> DivisorClass:
    """Parse expressions like ``3*L - E0 - 1/2*E12 + T6``.

    Tokens are L, the node tokens E0, E12..E56 and the trope tokens T1..T6,
    T126..T456; trope tokens are normalized into the standard basis. Each
    coefficient is an integer or fraction in ASCII digits.
    """
    from fractions import Fraction
    total = zero_class()
    for term in split_terms(text, "divisor expression"):
        parts = term.lstrip("+-").split("*")
        token = parts[-1]
        coeff = Fraction(-1 if term[0] == "-" else 1)
        for factor in parts[:-1]:
            try:
                coeff *= parse_number(factor, "coefficient")
            except ValueError:
                raise ValueError(f"bad coefficient {factor!r} in divisor term {term!r}") from None
        if token == "L":
            base = hyperplane_class()
        elif token.startswith("E"):
            base = node_class(parse_node_token(token))
        elif token.startswith("T"):
            base = trope(parse_trope_token(token))
        else:
            raise ValueError(f"unknown divisor token {token!r}")
        total = total + coeff * base
    return total


def format_divisor(d: DivisorClass) -> str:
    terms = []
    for name, doubled in zip(BASIS, d.doubled):
        if doubled == 0:
            continue
        token = "L" if name == "L" else node_token(name)
        mag = abs(doubled)
        coeff = str(mag // 2) if mag % 2 == 0 else f"{mag}/2"
        body = token if mag == 2 else f"{coeff}*{token}"
        terms.append(body if doubled > 0 else "-" + body)
    return join_terms(terms)
