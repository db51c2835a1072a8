"""Arithmetic tables for the residue field k = F_q, q = p^m with p an odd prime.

Elements are represented by their index in [0, q): the element with base-p
digit vector (c_0, .., c_{m-1}) under the fixed power basis of
F_p[y]/(f) has index sum(c_i * p^i).  The modulus f is the first monic
polynomial of degree m, in the same index order, that fqpoly's
irreducibility test accepts over F_p, so the encoding is deterministic
and reproducible across runs.

For m = 1 the index is the usual integer residue and all tables reduce to
arithmetic mod p.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import fqpoly


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class GFTable:
    """Dense arithmetic tables for F_q.

    Attributes add/mul are q x q nested tuples, neg/inv are q-tuples
    (inv[0] = 0 as a sentinel, never a valid inverse).  The numpy mirrors
    np_add etc. support vectorized use.
    """

    def __init__(self, p, m):
        if not (is_prime(p) and p >= 3):
            raise ValueError(f"characteristic {p} is not an odd prime")
        if m < 1:
            raise ValueError(f"degree {m} is not positive")
        self.p = p
        self.m = m
        self.q = q = p ** m
        if m == 1:
            # F_p's own tables: the general case below needs them
            self.modulus = [0, 1]
            add = [[(a + b) % p for b in range(p)] for a in range(p)]
            mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            kp = gf_table(p, 1)
            self.modulus = next(f for f in fqpoly.monic(m, p)
                                if fqpoly.is_irreducible(f, kp))
            add = [[0] * q for _ in range(q)]
            mul = [[0] * q for _ in range(q)]
            digs = [self.digits(e) for e in range(q)]
            for a in range(q):
                for b in range(q):
                    add[a][b] = self.from_digits(
                        [(x + y) % p for x, y in zip(digs[a], digs[b])])
                    mul[a][b] = self.from_digits(
                        fqpoly.mulmod(digs[a], digs[b], self.modulus, kp))
        self.add = tuple(tuple(r) for r in add)
        self.mul = tuple(tuple(r) for r in mul)
        self.neg = tuple(self.from_digits([(-c) % p for c in self.digits(a)])
                         for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            x = a
            # Fermat: a^(q-2)
            acc, e = 1, q - 2
            while e:
                if e & 1:
                    acc = self.mul[acc][x]
                x = self.mul[x][x]
                e >>= 1
            inv[a] = acc
        self.inv = tuple(inv)
        self.sub = tuple(tuple(self.add[a][self.neg[b]] for b in range(q))
                         for a in range(q))

        self.np_add = np.array(self.add, dtype=np.int64)
        self.np_sub = np.array(self.sub, dtype=np.int64)
        self.np_mul = np.array(self.mul, dtype=np.int64)
        self.np_neg = np.array(self.neg, dtype=np.int64)

    def digits(self, e):
        out = []
        for _ in range(self.m):
            out.append(e % self.p)
            e //= self.p
        return out

    def from_digits(self, ds):
        e = 0
        for c in reversed(ds[:self.m]):
            e = e * self.p + (c % self.p)
        return e

    def pow(self, a, e):
        if e < 0:
            a = self.inv[a]
            e = -e
        acc = 1
        while e:
            if e & 1:
                acc = self.mul[acc][a]
            a = self.mul[a][a]
            e >>= 1
        return acc

    def is_square(self, a):
        """Whether a is a square in F_q (0 counts as a square)."""
        if a == 0:
            return True
        return self.pow(a, (self.q - 1) // 2) == 1

    def least_nonresidue(self):
        """First quadratic nonresidue in the canonical enumeration.

        The enumeration starts with the prime-subfield lifts 1, 2, .., p-1
        (whose indices are just 1..p-1) and continues through the remaining
        indices in increasing order, so the choice is deterministic.
        """
        for a in range(1, self.q):
            if not self.is_square(a):
                return a
        raise RuntimeError("every element is a square; q must be even (excluded)")


@lru_cache(maxsize=None)
def gf_table(p, m=1):
    return GFTable(p, m)


def gf_by_order(q):
    """Table for F_q, factoring q = p^m."""
    for p in range(2, q + 1):
        if is_prime(p):
            m, t = 0, q
            while t % p == 0:
                t //= p
                m += 1
            if t == 1 and m >= 1:
                return gf_table(p, m)
            if q % p == 0:
                break
    raise ValueError(f"q = {q} is not an odd prime power")
