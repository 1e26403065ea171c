import pytest

from srip.dictionaries import (
    Dictionary,
    build_heisenberg_dictionary,
    build_oscillator_dictionary,
)
from srip.field import PrimeField

_heisenberg_cache: dict[int, Dictionary] = {}
_oscillator_cache: dict[int, Dictionary] = {}


def heisenberg_dict(p: int) -> Dictionary:
    if p not in _heisenberg_cache:
        _heisenberg_cache[p] = build_heisenberg_dictionary(PrimeField(p))
    return _heisenberg_cache[p]


def oscillator_dict(p: int) -> Dictionary:
    if p not in _oscillator_cache:
        _oscillator_cache[p] = build_oscillator_dictionary(PrimeField(p))
    return _oscillator_cache[p]


@pytest.fixture(scope="session")
def dh5():
    return heisenberg_dict(5)


@pytest.fixture(scope="session")
def dh7():
    return heisenberg_dict(7)


@pytest.fixture(scope="session")
def dh11():
    return heisenberg_dict(11)


@pytest.fixture(scope="session")
def single_basis5(dh5):
    """A dictionary consisting of one orthonormal basis (Gram is always I)."""
    return Dictionary(5, "heisenberg", 1.0, dh5.labels[:1], dh5.stack[:1])
