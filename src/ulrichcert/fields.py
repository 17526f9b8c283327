"""Exact scalar domains: prime fields GF(p) and the rational numbers.

All arithmetic in this package is exact; there is no floating point path.
Prime-field elements are plain Python ints in ``[0, p)``; rational elements
are ``fractions.Fraction``. Matrix and polynomial code does its arithmetic
with Python's own operators and hands every result to a two-method domain
protocol:

    coerce(x)   bring an int or Fraction into the domain: GF(p) reduces an
                int mod p and maps a Fraction through its denominator's
                inverse; QQ returns the value as a Fraction
    inv(x)      the multiplicative inverse of a nonzero element

Because ``coerce`` leaves every element normalised, an element is zero
exactly when it is falsy, and ``coerce(0)`` and ``coerce(1)`` are the
identities. Keeping scalars unboxed keeps the Groebner and
Gaussian-elimination hot loops fast.
"""
from __future__ import annotations

from fractions import Fraction

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the twelve bases 2..37 is deterministic below psi_12, the
# least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases"); psi_12 = 399165290221 * 798330580441.
PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PSI_12; larger n raise ValueError."""
    if n >= PSI_12:
        raise ValueError(f"cannot decide whether {n} is prime: Miller-Rabin with bases "
                         f"2..37 is deterministic only below {PSI_12}")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field GF(p) for an odd prime p, elements stored as ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        if p == 2:
            raise ValueError("GF(2) is not supported; an odd prime is required")
        self.p = p

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(
                    f"denominator {x.denominator} vanishes mod {self.p}")
            return x.numerator % self.p * pow(den, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {type(x).__name__} into GF({self.p})")

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The field of rational numbers, elements are exact Fractions."""

    __slots__ = ()

    def coerce(self, x) -> Fraction:
        return Fraction(x)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()
