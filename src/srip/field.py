"""Exact arithmetic in F_p and its quadratic extension.

All group-theoretic structure is kept in exact integers reduced mod p;
complex numbers enter only through the additive character table.  The
quadratic extension is modelled as a + b*sqrt(delta) with delta the
smallest quadratic non-residue, which works uniformly for every odd
prime p >= 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


class PrimeField:
    """Arithmetic helpers for F_p, p an odd prime >= 5.

    p = 2 and p = 3 are rejected: the constructions downstream need an
    invertible 2 and a uniquely normalized Weil operator family, both of
    which fail in characteristic 2 and 3.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p < 5:
            raise ValueError(f"p = {p} is rejected; the smallest supported prime is 5")
        self.p = p
        self.inv2 = pow(2, p - 2, p)
        # e^(2*pi*i*k/p) for k = 0..p-1; all character values index into this
        self.char_table = np.exp(2j * np.pi * np.arange(p) / p)
        # inverses and quadratic characters of 0..p-1, with 0 standing in for 1/0
        t = np.arange(p, dtype=np.int64)
        self.inverses = np.array([0] + [pow(k, p - 2, p) for k in range(1, p)], dtype=np.int64)
        self.legendre_table = np.full(p, -1, dtype=np.int64)
        self.legendre_table[(t * t) % p] = 1
        self.legendre_table[0] = 0
        for table in (self.char_table, self.inverses, self.legendre_table):
            table.setflags(write=False)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def legendre(self, a: int) -> int:
        """Quadratic character: +1 on nonzero squares, -1 on non-squares, 0 at 0."""
        a = a % self.p
        if a == 0:
            return 0
        r = pow(a, (self.p - 1) // 2, self.p)
        return 1 if r == 1 else -1


@lru_cache(maxsize=None)
def find_nonresidue(p: int) -> int:
    """Smallest delta in F_p with legendre(delta) = -1."""
    field = PrimeField(p)
    for delta in range(2, p):
        if field.legendre(delta) == -1:
            return delta
    raise AssertionError("every odd prime has a non-residue")


@dataclass(frozen=True)
class Fp2Element:
    """a + b*sqrt(delta) in F_{p^2}, delta a fixed non-residue mod p."""

    a: int
    b: int
    delta: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "a", self.a % self.p)
        object.__setattr__(self, "b", self.b % self.p)

    def norm(self) -> int:
        """a^2 - delta*b^2 mod p (the norm to F_p)."""
        return (self.a * self.a - self.delta * self.b * self.b) % self.p

    def __mul__(self, other: "Fp2Element") -> "Fp2Element":
        if (other.p, other.delta) != (self.p, self.delta):
            raise ValueError("elements live in different quadratic extensions")
        a = self.a * other.a + self.delta * self.b * other.b
        b = self.a * other.b + self.b * other.a
        return Fp2Element(a % self.p, b % self.p, self.delta, self.p)

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    def multiplicative_order(self) -> int:
        if self.a == 0 and self.b == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        acc = self
        order = 1
        while not acc.is_one():
            acc = acc * self
            order += 1
            if order > self.p * self.p:
                raise AssertionError("order computation did not terminate")
        return order


def norm_one_generator(p: int, delta: int) -> Fp2Element:
    """Generator of the norm-one subgroup of F_{p^2}^x (cyclic of order p+1).

    Scans (a, b) in lexicographic order and returns the first norm-one
    element of exact multiplicative order p+1, so the result is
    deterministic across runs.
    """
    field = PrimeField(p)
    if field.legendre(delta) != -1:
        raise ValueError(f"delta = {delta} is a quadratic residue mod {p}")
    for a in range(p):
        for b in range(p):
            g = Fp2Element(a, b, delta, p)
            if g.norm() != 1:
                continue
            if g.multiplicative_order() == p + 1:
                return g
    raise AssertionError("norm-one subgroup of a quadratic extension is cyclic")
