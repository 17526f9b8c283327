"""Node and trope labels for the sixteen-nodes configuration.

A node label is either ``(0,)``, the image of the origin, or a sorted pair
``(i, j)`` with 1 <= i < j <= 6 naming a difference of two Weierstrass
points. Tropes are labelled by an index 1..6 or by a triple ``(i, j, 6)``
with i < j <= 5. Tokens are the compact strings ``E0, E12, ..., E56`` and
``T1, ..., T6, T126, ..., T456``.

It also holds the constants of the reference configuration, the term
splitter and joiner shared by the polynomial and divisor parsers and
printers, and ``parse_number``, the one reader of a number typed as text,
so that callers which only need these do not import the layers that own
them.
"""
from __future__ import annotations

import re

DEFAULT_PRIME = 32003
DEFAULT_ROOTS = (1, -1, 2, -2, 3, -3)

# Recipe kinds of a candidate class M.
TWELVE_NODES = "twelve-nodes"
HALF_EVEN_EIGHT = "half-even-eight"

# Printed recipe of the reference construction: 3L minus these twelve nodes.
DEFAULT_TWELVE = ((0,), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6),
                  (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (3, 5))

NODE_LABELS = ((0,),) + tuple(
    (i, j) for i in range(1, 7) for j in range(i + 1, 7))

TROPE_LABELS = tuple(range(1, 7)) + tuple(
    (i, j, 6) for i in range(1, 6) for j in range(i + 1, 6))


def node_token(label) -> str:
    if label == (0,):
        return "E0"
    i, j = label
    return f"E{i}{j}"


def trope_token(label) -> str:
    if isinstance(label, int):
        return f"T{label}"
    i, j, k = label
    return f"T{i}{j}{k}"


# Token digits are compared as characters, so only ASCII '1'..'6' read as indices.

def parse_node_token(token: str):
    token = token.strip()
    if token == "E0":
        return (0,)
    if len(token) == 3 and token[0] == "E" and "1" <= token[1] < token[2] <= "6":
        return (int(token[1]), int(token[2]))
    raise ValueError(f"bad node token {token!r}")


def parse_trope_token(token: str):
    token = token.strip()
    if len(token) == 2 and token[0] == "T" and "1" <= token[1] <= "6":
        return int(token[1])
    if (len(token) == 4 and token[0] == "T" and "1" <= token[1] < token[2] <= "5"
            and token[3] == "6"):
        return (int(token[1]), int(token[2]), 6)
    raise ValueError(f"bad trope token {token!r}")


# ASCII digits only: int() and Fraction() also read other scripts' digits and
# underscores. A denominator is nonzero.
_NUMBER_RE = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def parse_number(text: str, what: str, integer: bool = False):
    """The number that ``text`` spells, with an optional sign and surrounding
    whitespace: an int if ``integer``, else an integer or a fraction ``n/d``
    as a Fraction. Anything else is a ``ValueError`` naming ``what``."""
    match = _NUMBER_RE.fullmatch(text.strip())
    if not match or integer and match[1]:
        kind = "an integer" if integer else "an integer or fraction"
        raise ValueError(f"invalid {what} {text.strip()!r}: not {kind} in ASCII digits")
    from fractions import Fraction
    return int(match[0]) if integer else Fraction(match[0])


def validate_node_label(label):
    """Normalize a node label; pairs may be given in either order."""
    if label == (0,):
        return label
    if isinstance(label, tuple) and len(label) == 2:
        i, j = label
        if isinstance(i, int) and isinstance(j, int) and i != j \
                and 1 <= i <= 6 and 1 <= j <= 6:
            return (i, j) if i < j else (j, i)
    raise ValueError(f"invalid node label {label!r}")


_TERM_RE = re.compile(r"[+-]?[^+-]+")


def split_terms(text: str, what: str) -> list:
    """The signed terms of a sum, ``['3*X^2', '-Y']`` for ``3*X^2 - Y``.

    Whitespace is dropped and each term keeps its sign character, if it has
    one; ``what`` names the input in the error raised for text that is not a
    sum of terms.
    """
    compact = "".join(text.split())
    terms = []
    pos = 0
    for match in _TERM_RE.finditer(compact):
        if match.start() != pos:
            raise ValueError(f"cannot parse {what} near {compact[pos:pos+20]!r}")
        pos = match.end()
        terms.append(match.group())
    if pos != len(compact):
        raise ValueError(f"trailing garbage in {what}: {compact[pos:]!r}")
    return terms


def join_terms(terms) -> str:
    """The sum of signed terms, the inverse of :func:`split_terms`.

    A term without a sign character is positive; the first term is written
    without ``+``, and the empty sum is ``0``.
    """
    text = "".join(t if t.startswith(("+", "-")) else "+" + t for t in terms)
    return text.removeprefix("+") or "0"
