from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ulrichcert.fields import PSI_12, QQ, PrimeField, is_prime


def egcd_inverse(a, p):
    """Extended-Euclid oracle, independent of the library path."""
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


def test_inverse_of_one(gf):
    assert gf.inv(1) == 1


def test_inverse_of_two(gf):
    assert gf.inv(2) == 16002
    assert 2 * 16002 % 32003 == 1


def test_inverse_of_zero_raises(gf):
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


@given(st.integers(1, 32002))
def test_inverse_matches_extended_euclid(a):
    gf = PrimeField(32003)
    assert gf.inv(a) == egcd_inverse(a, 32003)


@given(st.integers(1, 32002))
def test_inverse_is_an_involution(a):
    gf = PrimeField(32003)
    assert gf.inv(gf.inv(a)) == a


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        PrimeField(32004)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(2)


def test_is_prime_spot_checks():
    assert is_prime(32003)
    assert is_prime(7)
    assert not is_prime(32001)
    assert not is_prime(0)


def test_is_prime_refuses_moduli_beyond_deterministic_bound():
    assert PSI_12 == 399165290221 * 798330580441
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)  # 193707721 * 761838257287
    with pytest.raises(ValueError, match=str(PSI_12)):
        is_prime(PSI_12)
    with pytest.raises(ValueError, match=str(PSI_12)):
        PrimeField(PSI_12 + 2)


def test_coerce_fraction(gf):
    half = gf.coerce(Fraction(1, 2))
    assert 2 * half % 32003 == 1
    with pytest.raises(ZeroDivisionError):
        gf.coerce(Fraction(1, 32003))


def test_rationals_domain():
    assert QQ.inv(Fraction(2)) == Fraction(1, 2)
    assert QQ.coerce(3) == Fraction(3)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
