import numpy as np
import pytest
from hypothesis import given, strategies as st

from srip.dictionaries import _model_generator
from srip.field import PrimeField, is_prime

from oracles import SL2Element, model_generator, primitive_root

PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.mark.parametrize("p", [2, 3, 4, 9, 15])
def test_bad_primes_rejected(p):
    with pytest.raises(ValueError):
        PrimeField(p)


def test_character_identity_and_inverse_pairs():
    f = PrimeField(7)
    assert f.char_table[0] == 1
    for z in range(1, 7):
        prod = f.char_table[z] * f.char_table[7 - z]
        assert abs(prod - 1) < 1e-14


def test_character_unit_modulus():
    for p in PRIMES:
        f = PrimeField(p)
        assert np.abs(np.abs(f.char_table) - 1).max() < 1e-15


def test_character_geometric_sum_vanishes():
    f = PrimeField(7)
    total = sum(f.char_table[z] for z in range(7))
    assert abs(total) < 1e-12


@pytest.mark.parametrize("p", PRIMES)
def test_character_orthogonality(p):
    f = PrimeField(p)
    for a in range(p):
        total = sum(f.char_table[(a * z) % p] for z in range(p))
        expected = p if a == 0 else 0.0
        assert abs(total - expected) < 1e-10


@given(
    p=st.sampled_from(PRIMES),
    z1=st.integers(min_value=0, max_value=200),
    z2=st.integers(min_value=0, max_value=200),
)
def test_character_is_additive_homomorphism(p, z1, z2):
    f = PrimeField(p)
    lhs = f.char_table[z1 % p] * f.char_table[z2 % p]
    rhs = f.char_table[(z1 + z2) % p]
    assert abs(lhs - rhs) < 1e-14


@pytest.mark.parametrize("p", PRIMES)
def test_legendre_matches_square_table(p):
    f = PrimeField(p)
    squares = {(a * a) % p for a in range(1, p)}
    assert f.legendre_table[0] == 0
    for a in range(1, p):
        assert f.legendre_table[a] == (1 if a in squares else -1)


def test_legendre_mod5_examples():
    f = PrimeField(5)
    assert f.legendre_table[4] == 1
    assert f.legendre_table[2] == -1
    assert f.legendre_table[1] == 1


@given(
    p=st.sampled_from(PRIMES),
    a=st.integers(min_value=1, max_value=400),
    b=st.integers(min_value=1, max_value=400),
)
def test_legendre_multiplicative(p, a, b):
    f = PrimeField(p)
    if a % p == 0 or b % p == 0:
        return
    table = f.legendre_table
    assert table[a * b % p] == table[a % p] * table[b % p]


def _model_delta(p):
    """delta of the model generator [[a, b*delta], [b, a]]: its entry b*delta over b."""
    f = PrimeField(p)
    _, bdelta, b, _ = _model_generator(f)
    return bdelta * int(f.inverses[b]) % p


def test_find_nonresidue_examples():
    # the model torus is built on the smallest non-residue
    assert _model_delta(5) == 2
    assert _model_delta(7) == 3
    for p in [5, 7, 11, 13, 31]:
        assert PrimeField(p).legendre_table[_model_delta(p)] == -1


def test_half_is_inverse_of_two():
    for p in PRIMES:
        f = PrimeField(p)
        for a in range(p):
            assert (2 * ((a * f.inv2) % p)) % p == a % p


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31])
def test_norm_one_generator_order(p):
    # the model generator lies in SL_2 (its norm a^2 - delta*b^2 is its determinant)
    g = SL2Element(*_model_generator(PrimeField(p)), p)
    # exact order p+1 by repeated multiplication (integer arithmetic)
    acc = g
    order = 1
    while acc != SL2Element.identity(p):
        acc = acc * g
        order += 1
    assert order == p + 1


@pytest.mark.parametrize("p", [5, 7, 11])
def test_norm_one_generator_half_power_is_minus_one(p):
    g = SL2Element(*_model_generator(PrimeField(p)), p)
    acc = SL2Element.identity(p)
    for _ in range((p + 1) // 2):
        acc = acc * g
    assert (acc.a, acc.b, acc.c, acc.d) == (p - 1, 0, 0, p - 1)


def test_model_generator_matches_the_oracle_scan():
    for p in filter(is_prime, range(5, 400)):
        assert _model_generator(PrimeField(p)) == model_generator(p), p


def test_primitive_root():
    for p in PRIMES:
        g = primitive_root(PrimeField(p))
        seen = set()
        acc = 1
        for _ in range(p - 1):
            acc = (acc * g) % p
            seen.add(acc)
        assert len(seen) == p - 1
