"""F_q[x] arithmetic: sympy as an oracle over prime fields, self-consistency
over F_9, and the moduli the field tables are built on."""

import pytest
from sympy import Poly, symbols

from orbitcount.fqpoly import (irreducible_factors, is_irreducible, monic,
                               powmod, quo_rem, sqrt_mod)
from orbitcount.gf import gf_by_order

k3 = gf_by_order(3)
k9 = gf_by_order(9)
x = symbols("x")


def _index(poly, q):
    return sum(c * q ** i for i, c in enumerate(poly))


def _from_sympy(f, p):
    return [int(c) % p for c in reversed(f.all_coeffs())]


def test_monic_enumerates_in_index_order():
    polys = list(monic(2, 3))
    assert len(polys) == 9
    assert [_index(h[:-1], 3) for h in polys] == list(range(9))
    assert all(len(h) == 3 and h[-1] == 1 for h in polys)


@pytest.mark.parametrize("q,max_deg", [(3, 4), (5, 3), (7, 3)])
def test_prime_fields_agree_with_sympy(q, max_deg):
    k = gf_by_order(q)
    for deg in range(1, max_deg + 1):
        for h in monic(deg, q):
            f = Poly(list(reversed(h)), x, modulus=q)
            assert is_irreducible(h, k) == f.is_irreducible, h
            want = sorted((_from_sympy(g, q) for g, _ in f.factor_list()[1]),
                          key=lambda g: (len(g), _index(g, q)))
            assert irreducible_factors(h, k) == want, h


def test_f9_irreducibility_matches_factoring():
    for deg in range(1, 4):
        for h in monic(deg, 9):
            assert is_irreducible(h, k9) == (irreducible_factors(h, k9) == [h])


@pytest.mark.parametrize("q,modulus", [
    (9, [1, 0, 1]), (25, [2, 0, 1]), (27, [1, 2, 0, 1]), (49, [1, 0, 1]),
    (81, [2, 1, 0, 0, 1]), (121, [1, 0, 1]), (125, [1, 1, 0, 1]),
])
def test_field_table_moduli(q, modulus):
    assert gf_by_order(q).modulus == modulus


def test_poly_divmod():
    # x^2 + 1 = (x + 1)(x + 2) + 2 over F_3
    quot, rem = quo_rem([1, 0, 1], [1, 1], k3)
    assert quot == [2, 1] and rem == [2]
    quot, rem = quo_rem([2, 1], [2, 1], k3)
    assert quot == [1] and rem == []
    quot, rem = quo_rem([1], [0, 0, 1], k3)
    assert quot == [] and rem == [1]


def test_distinct_irreducible_factors():
    # x^2 - x = x (x - 1)
    fs = irreducible_factors([0, 2, 1], k3)
    assert sorted(fs) == sorted([[0, 1], [2, 1]])
    # repeated factor collapses
    assert irreducible_factors([0, 0, 1], k3) == [[0, 1]]
    # irreducible stays whole
    assert irreducible_factors([1, 0, 1], k3) == [[1, 0, 1]]


def test_sqrt_mod_small_fields():
    # 2 is a non-square of F_3 and a square in F_9 = F_3[x]/(x^2 + 1)
    r = sqrt_mod(2, [1, 0, 1], k3)
    assert powmod(r, 2, [1, 0, 1], k3) == [2, 0]
    assert sqrt_mod(2, [0, 1], k3) is None
    assert sqrt_mod(1, [0, 1], k3) in ([1], [2])
    assert sqrt_mod(k9.least_nonresidue(), [0, 1], k9) is None
