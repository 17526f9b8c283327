import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ulrichcert.labels import (NODE_LABELS, TROPE_LABELS, TWELVE_NODES, parse_node_token,
                               parse_number, parse_trope_token)
from ulrichcert.fields import QQ
from ulrichcert.linalg import hermite_normal_form, hnf_contains, rank
from ulrichcert.picard import (BundleRecipe, DEFAULT_TWELVE, DivisorClass,
                               EvenEightTester, HALF_EVEN_EIGHT, Involution,
                               PolarizedSurfaceParams, RANK, _pairing4, checked_recipe, chi_k3,
                               default_picard_generators, default_recipe, doubled_support,
                               even_eight_test, format_divisor, hyperplane_class,
                               incidence_is_16_6, incidence_table, is_invariant,
                               node_class, numerical_ulrich, pairing, parse_divisor,
                               polarization, trope, zero_class)

L = hyperplane_class()
H = polarization()
M = default_recipe().divisor()

REMARK_EIGHT = ((1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6))

DEFAULT_TWELVE_IN_LABEL_ORDER = tuple(l for l in NODE_LABELS if l in DEFAULT_TWELVE)

# same twelve as the default recipe except E24 is traded for E25
SWAPPED_TWELVE = tuple(l for l in DEFAULT_TWELVE if l != (2, 4)) + ((2, 5),)


def test_gram_data():
    assert pairing(L, L) == 4
    assert pairing(node_class((1, 2)), node_class((1, 3))) == 0
    assert pairing(node_class((1, 2)), node_class((1, 2))) == -2
    assert pairing(L, node_class((1, 2))) == 0


def test_polarization_square():
    assert pairing(H, H) == 8


@given(st.integers(-3, 3), st.integers(-3, 3))
def test_pairing_bilinear_symmetric(a, b):
    d1 = a * L + b * node_class((2, 5))
    d2 = b * L - a * node_class((0,))
    assert pairing(d1, d2) == pairing(d2, d1)
    assert pairing(d1 + d2, d2) == pairing(d1, d2) + pairing(d2, d2)


def test_trope_squares_and_degree():
    for label in TROPE_LABELS:
        t = trope(label)
        assert pairing(t, t) == -2
        assert pairing(t, L) == 2


def test_specific_trope_values():
    assert pairing(trope(6), trope(6)) == -2
    assert pairing(trope(6), L) == 2
    assert pairing(trope((2, 4, 6)), node_class((2, 4))) == 1


def test_quarter_pairing_is_four_times_the_pairing():
    nodes = [node_class(label) for label in NODE_LABELS]
    tropes = [trope(label) for label in TROPE_LABELS]
    for e in nodes:
        for t in tropes:
            assert _pairing4(e, t) == 4 * pairing(e, t)
    mixed = [H, M, L, parse_divisor("3*L - E0 - 1/2*E12 + T6"),
             parse_divisor("1/2*E13 - 3*T126 + E56"), parse_divisor("-L + 3*T3 - 1/2*E0")]
    for a in mixed:
        for b in mixed + nodes + tropes:
            quarters = _pairing4(a, b)
            assert type(quarters) is int
            assert quarters == 4 * pairing(a, b) == _pairing4(b, a)


def test_trope_label_validation():
    with pytest.raises(ValueError):
        trope(7)
    with pytest.raises(ValueError):
        trope((1, 2, 5))


def test_theta_star_images(theta):
    assert theta.apply(node_class((0,))) == trope((4, 5, 6))
    assert theta.apply(node_class((4, 5))) == trope(6)
    expected_l = 3 * L - sum((node_class(l) for l in NODE_LABELS), zero_class())
    assert theta.apply(L) == expected_l


def test_theta_star_is_involution(theta):
    for k, label in enumerate(("L",) + NODE_LABELS):
        basis_vec = L if label == "L" else node_class(label)
        assert theta.apply(theta.apply(basis_vec)) == basis_vec


def test_theta_star_is_isometry(theta):
    basis = [L] + [node_class(l) for l in NODE_LABELS]
    for a, b in itertools.combinations_with_replacement(basis, 2):
        assert pairing(theta.apply(a), theta.apply(b)) == pairing(a, b)


def test_theta_star_swaps_nodes_and_tropes(theta):
    node_images = {theta.apply(node_class(l)) for l in NODE_LABELS}
    tropes = {trope(t) for t in TROPE_LABELS}
    assert node_images == tropes
    trope_images = {theta.apply(trope(t)) for t in TROPE_LABELS}
    nodes = {node_class(l) for l in NODE_LABELS}
    assert trope_images == nodes


def test_invariance_of_polarization_and_candidate(theta):
    assert is_invariant(theta, H)
    assert is_invariant(theta, M)
    assert not is_invariant(theta, node_class((0,)))


def test_theta_star_fixed_basis(theta):
    basis = theta.fixed_basis()
    assert theta.scale == 2
    assert rank(basis, RANK, QQ) == len(basis) == 10
    assert all(theta.fixes(b) for b in basis)
    for d in (H, M):
        assert rank(basis + [d.doubled], RANK, QQ) == 10


def test_candidate_equals_trope_decomposition():
    """The candidate class equals L + T6 + T1 + T246 + T356."""
    rhs = L + trope(6) + trope(1) + trope((2, 4, 6)) + trope((3, 5, 6))
    assert rhs == M


def test_swapped_recipe_is_not_invariant(theta):
    swapped = BundleRecipe(labels=SWAPPED_TWELVE).divisor()
    assert not is_invariant(theta, swapped)


def test_broken_swap_table_rejected():
    columns = [DivisorClass((3,) + (-1,) * 16)]
    for label in NODE_LABELS:
        columns.append(node_class(label))  # identity on nodes: not an involution
    with pytest.raises(ValueError):
        Involution(columns)


def test_chi_values():
    assert chi_k3(zero_class()) == 2
    assert chi_k3(M - H) == 0
    assert chi_k3(M - 2 * H) == 0
    assert chi_k3(M) == 8
    assert chi_k3(H) == 6


def test_numerical_ulrich():
    params = PolarizedSurfaceParams(4)
    assert numerical_ulrich(params, H, M)
    assert not numerical_ulrich(params, H, H)
    remark_m = 2 * L - Fraction(1, 2) * sum(
        (node_class(l) for l in REMARK_EIGHT), zero_class())
    assert numerical_ulrich(params, H, remark_m)
    with pytest.raises(ValueError):
        numerical_ulrich(PolarizedSurfaceParams(3), H, M)
    for s in (0, -4, 4.5, "4"):
        with pytest.raises(ValueError, match="^s must be a positive integer$"):
            PolarizedSurfaceParams(s=s)


def test_even_eight_positive_example():
    assert even_eight_test(REMARK_EIGHT)


def test_even_eight_negative_example():
    assert not even_eight_test(
        ((0,), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4)))


def test_even_eight_nodes_only_generators():
    gens = [node_class(l) for l in NODE_LABELS]
    assert not EvenEightTester(gens).test(REMARK_EIGHT)


def test_even_eight_cardinality_and_generators_errors():
    with pytest.raises(ValueError):
        even_eight_test(REMARK_EIGHT[:7])
    with pytest.raises(ValueError):
        EvenEightTester([])


def test_even_eight_sweep_complement_closed():
    tester = EvenEightTester()
    positives = set(tester.sweep())
    assert len(positives) == 30
    full = set(NODE_LABELS)
    assert all(frozenset(full - s) in positives for s in positives)
    assert frozenset(REMARK_EIGHT) in positives


def subset_sweep(generators):
    """The even eights found by testing each of the 12870 eight-subsets; the
    oracle for EvenEightTester.sweep()."""
    hnf, pivots = hermite_normal_form([g.doubled for g in generators])
    return [frozenset(combo) for combo in itertools.combinations(NODE_LABELS, 8)
            if hnf_contains(hnf, pivots, [0] + [int(l in combo) for l in NODE_LABELS])]


def half_nodes_but_e0():
    """Half node classes except E0, which enters only as 3/2*E0, and L/2. The
    F2 span is all of F2^17, yet no half sum through E0 lies in the span, so
    the exact check rejects half of the candidates."""
    half = Fraction(1, 2)
    return ([half * L, Fraction(3, 2) * node_class((0,))]
            + [half * node_class(l) for l in NODE_LABELS[1:]])


@pytest.mark.parametrize("generators, count", [
    (default_picard_generators(), 30),
    ([node_class(l) for l in NODE_LABELS], 0),
    (half_nodes_but_e0(), 6435),
], ids=["default", "nodes-only", "half-nodes-full-rank"])
def test_even_eight_sweep_matches_subset_oracle(generators, count):
    positives = EvenEightTester(generators).sweep()
    assert positives == subset_sweep(generators)
    assert len(positives) == count


def test_incidence_values():
    table = incidence_table()
    for i in range(1, 7):
        assert table[((0,), i)] == 1
    assert table[((1, 2), 3)] == 0
    assert incidence_is_16_6(table)


def _sum_preserving_swap(table):
    """Nodes a, b and tropes s, t with (a, s), (a, t), (b, s) on and (b, t)
    off; moving one incidence around that rectangle keeps every row and
    column sum."""
    for (a, b), (s, t) in itertools.product(itertools.permutations(NODE_LABELS, 2),
                                            itertools.permutations(TROPE_LABELS, 2)):
        if (table[(a, s)], table[(a, t)], table[(b, s)], table[(b, t)]) == (1, 1, 1, 0):
            return a, b, s, t
    raise AssertionError("no rectangle found")


def _broken_tables():
    """Incidence tables that each break one clause of the 16_6 check."""
    table = incidence_table()
    flipped = dict(table)
    flipped[((1, 2), 3)] = 1  # row E12 and column T3 sum to 7
    doubled = dict(table)
    doubled[((0,), 1)] = 2  # row E0 sums to 7
    first, second = NODE_LABELS[0], TROPE_LABELS[0]
    on = next(tl for tl in TROPE_LABELS if table[(first, tl)] and tl != second)
    off = next(tl for tl in TROPE_LABELS if not table[(first, tl)])
    moved = dict(table)  # rows keep their sums, two columns do not
    moved[(first, on)], moved[(first, off)] = 0, 1
    a, b, s, t = _sum_preserving_swap(table)
    two = dict(table)  # every row and column sums to 6, one entry is 2
    two[(a, s)], two[(a, t)], two[(b, s)], two[(b, t)] = 2, 0, 0, 1
    return [flipped, doubled, moved, two]


@pytest.mark.parametrize("case", range(4),
                         ids=["flipped-entry", "entry-two", "column-sums", "sums-kept-entry-two"])
def test_incidence_check_rejects_broken_tables(case):
    table = _broken_tables()[case]
    assert table != incidence_table()
    assert not incidence_is_16_6(table)


def test_divisor_parser_round_trip():
    text = "3*L-E0-E16-E26-E36-E46-E56-E12-E13-E14-E15-E24-E35"
    assert parse_divisor(text) == M
    assert parse_divisor(format_divisor(M)) == M


def test_divisor_parser_tropes_and_fractions():
    assert parse_divisor("T6") == trope(6)
    assert parse_divisor("1/2*E12+1/2*E13") == Fraction(1, 2) * (
        node_class((1, 2)) + node_class((1, 3)))
    assert parse_divisor("2*T126") == 2 * trope((1, 2, 6))
    with pytest.raises(ValueError):
        parse_divisor("2*Q")
    with pytest.raises(ValueError):
        parse_divisor("1/2*T126")  # leaves the half-integral lattice
    with pytest.raises(ValueError, match=r"'1/0\*L'"):
        parse_divisor("1/0*L")
    with pytest.raises(ValueError, match="bad trope token 'T7'"):
        parse_divisor("T7")
    with pytest.raises(ValueError, match="^bad coefficient '\u0662' in divisor term '\u0662\\*L'$"):
        parse_divisor("\u0662*L")  # Fraction() once read it as 2


def test_divisor_class_denominators():
    with pytest.raises(ValueError):
        DivisorClass((Fraction(1, 4),) + (0,) * 16)
    with pytest.raises(ValueError):
        DivisorClass((1, 2, 3))


@pytest.mark.parametrize("value", ["1/2", "3", 0.5, 3.0], ids=repr)
def test_divisor_class_reads_only_ints_and_fractions(value):
    """Strings and floats are refused as coefficients and as scalars; the
    constructor once read "1/2" as 1/2 and 0.5 * L was L/2."""
    with pytest.raises(TypeError, match=f"not {type(value).__name__}$"):
        DivisorClass((value,) + (0,) * 16)
    with pytest.raises(TypeError):
        value * L
    assert DivisorClass((Fraction(1, 2), True) + (0,) * 15) == Fraction(1, 2) * L + node_class(NODE_LABELS[0])


def test_recipe_validation():
    with pytest.raises(ValueError, match="^unknown recipe kind 'unknown'$"):
        BundleRecipe(kind="unknown")
    with pytest.raises(ValueError, match="^recipe labels must be distinct$"):
        BundleRecipe(labels=DEFAULT_TWELVE + ((2, 1),))
    with pytest.raises(ValueError, match=r"^invalid node label \(1, 1\)$"):
        BundleRecipe(HALF_EVEN_EIGHT, ((1, 1),))
    half = BundleRecipe(kind=HALF_EVEN_EIGHT, labels=REMARK_EIGHT)
    expected = 2 * L - Fraction(1, 2) * sum(
        (node_class(l) for l in REMARK_EIGHT), zero_class())
    assert half.divisor() == expected


def test_checked_recipe_reads_node_tokens():
    """The one reader of recipe tokens, for the config file and for descend."""
    tokens = ["E0", "E12", "E13", "E14", "E15", "E16", "E23", "E24"]
    assert checked_recipe(HALF_EVEN_EIGHT, tokens) == BundleRecipe(
        HALF_EVEN_EIGHT, [(0,), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4)])
    assert checked_recipe(HALF_EVEN_EIGHT, tuple(tokens)) == checked_recipe(HALF_EVEN_EIGHT, tokens)
    for bad in ("E0", None, [5] + tokens[1:]):
        with pytest.raises(ValueError, match="^recipe.labels is not a list of strings: "):
            checked_recipe(HALF_EVEN_EIGHT, bad)
    with pytest.raises(ValueError, match="^bad node token 'E99'$"):
        checked_recipe(HALF_EVEN_EIGHT, ["E99"] + tokens[1:])
    with pytest.raises(ValueError, match="needs exactly 12 labels, got 8$"):
        checked_recipe(TWELVE_NODES, tokens)


def test_default_generator_count():
    assert len(default_picard_generators()) == 33


@pytest.mark.parametrize("text", [
    "0*L", "L", "3*L-E0-E16-E26-E36-E46-E56-E12-E13-E14-E15-E24-E35", "T6", "T246",
    "2*L-1/2*E13-1/2*E14+3/2*E56", "-5/2*L+E0-E12+2*E23",
])
def test_doubled_support_inverts_doubled_class(text):
    d = parse_divisor(text)
    doubled_l, support = doubled_support(d)
    assert 0 not in support
    rebuilt = Fraction(doubled_l, 2) * L
    for doubled, labels in support.items():
        assert list(labels) == sorted(labels, key=NODE_LABELS.index)
        rebuilt = rebuilt + sum((Fraction(doubled, 2) * node_class(l) for l in labels),
                                zero_class())
    assert rebuilt == d


def test_doubled_support_of_fixed_classes():
    assert doubled_support(H) == (4, {-1: NODE_LABELS})
    assert doubled_support(M) == (6, {-2: DEFAULT_TWELVE_IN_LABEL_ORDER})
    assert doubled_support(trope(6)) == (1, {-1: ((0,), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6))})
    assert doubled_support(zero_class()) == (0, {})


def test_classes_store_doubled_integers():
    assert node_class((1, 2)).doubled == (0, 0, 2) + (0,) * 14
    assert H.doubled == (4,) + (-1,) * 16
    assert all(type(x) is int for x in (Fraction(1, 2) * M).doubled)


def test_non_isometric_involution_rejected():
    # swapping L and E0 squares to the identity but changes L^2 = 4 into -2
    columns = [node_class((0,)), L] + [node_class(l) for l in NODE_LABELS[1:]]
    with pytest.raises(ValueError, match="intersection form"):
        Involution(columns)


def test_involution_image_with_quarter_coefficient_raises(theta):
    # theta(E0 / 2) = T456 / 2 has quarter coefficients
    with pytest.raises(ValueError, match="denominator"):
        theta.apply(Fraction(1, 2) * node_class((0,)))


@pytest.mark.parametrize("parse, token", [
    (parse_node_token, "E\u0663\u0665"), (parse_node_token, "E3\u00b2"),
    (parse_trope_token, "T\u0666"), (parse_trope_token, "T1\u00b26"),
], ids=["arabic-indic-node", "superscript-node", "arabic-indic-trope", "superscript-trope"])
def test_tokens_read_ascii_digits_only(parse, token):
    """E\u0663\u0665 once read as E35 and T\u0666 as T6; E3\u00b2 raised int()'s message."""
    kind = "node" if parse is parse_node_token else "trope"
    with pytest.raises(ValueError, match=f"^bad {kind} token '{token}'$"):
        parse(token)


@pytest.mark.parametrize("text, integer, value", [
    ("7", True, 7), (" -7 ", True, -7), ("+32003", True, 32003), ("3/4", False, Fraction(3, 4)),
    ("-6/4", False, Fraction(-3, 2)), ("5", False, Fraction(5)),
])
def test_parse_number_reads_ascii_integers_and_fractions(text, integer, value):
    number = parse_number(text, "x", integer)
    assert number == value and type(number) is type(value)


@pytest.mark.parametrize("text, integer, reason", [
    ("\u0667", True, "not an integer in ASCII digits"),
    ("32_003", True, "not an integer in ASCII digits"),
    ("1/2", True, "not an integer in ASCII digits"),
    ("\u0661/2", False, "not an integer or fraction in ASCII digits"),
    ("0.5", False, "not an integer or fraction in ASCII digits"),
    ("1e3", False, "not an integer or fraction in ASCII digits"),
    ("1/0", False, "not an integer or fraction in ASCII digits"),
    ("1/00", False, "not an integer or fraction in ASCII digits"),
    ("", False, "not an integer or fraction in ASCII digits"),
])
def test_parse_number_refuses_all_but_ascii_digits(text, integer, reason):
    with pytest.raises(ValueError, match=f"^invalid x {re.escape(repr(text))}: {reason}$"):
        parse_number(text, "x", integer)
