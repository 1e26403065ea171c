"""Exact arithmetic in F_p.

All group-theoretic structure is kept in exact integers reduced mod p,
and group elements are integer rows; complex numbers enter only through
the additive character table.  ``PrimeField`` holds the tables that the
operator and dictionary builders index: the characters, the inverses and
the quadratic characters of 0..p-1.
"""

from __future__ import annotations

import math

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
