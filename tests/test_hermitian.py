"""Self-dual counting, its quotient structure, and the slicing helpers."""

import numpy as np
import pytest

from orbitcount.errors import BudgetExceeded, TargetUnreachable
from orbitcount.gf import gf_by_order
from orbitcount.hermitian import (_distinct_irreducible_factors,
                                  _matrix_min_poly, _poly_apply, _poly_divmod,
                                  build_hermitian_quotient, count_selfdual,
                                  selfdual_submodules, split_factor_check)
from orbitcount.invariants import InvariantPair
from orbitcount.kspace import KSpace
from orbitcount.local_field import EElem, TruncSeries, field_desc
from orbitcount.order_lattices import (_is_isotropic, build_order,
                                       build_quotient,
                                       enumerate_stable_submodules)
from orbitcount.verify import rand_invariants

inert3 = field_desc(3, "inert")
split3 = field_desc(3, "split")


def _pi_pair(desc, e):
    b0 = EElem.from_real(desc, TruncSeries.pi_pow(desc.k, e, prec=10))
    return InvariantPair([EElem.zero(desc, 10)], [b0], desc)


def _herm(ab, N=10):
    o = build_order(ab)
    Q = build_quotient(o, N)
    return Q, build_hermitian_quotient(o, ab.desc, N, fq=Q)


def test_inert_even_chain():
    Q, QE = _herm(_pi_pair(inert3, 2))
    assert QE.dim == 4 and QE.v == 2
    assert count_selfdual(QE) == 1


def test_inert_odd_chain_has_none():
    Q, QE = _herm(_pi_pair(inert3, 3))
    assert count_selfdual(QE) == 0


def test_split_chain_matches_sum():
    Q, QE = _herm(_pi_pair(split3, 3))
    m = enumerate_stable_submodules(Q)
    N = count_selfdual(QE)
    assert sum(m) == N == 4
    assert split_factor_check(Q, QE)


def test_selfdual_nodes_are_stable_isotropic():
    Q, QE = _herm(_pi_pair(split3, 2))
    sp = QE.space
    for S in selfdual_submodules(QE):
        assert S.dim == QE.v
        W = S.basis_matrix()
        sheets = list(QE.herm_re) + list(QE.herm_im)
        assert _is_isotropic(sp, W, sheets)
        for M in QE.ops:
            for row in W:
                assert S.contains(sp.mat_vec(M, row))


def test_hermitian_sheet_symmetry():
    ab = rand_invariants(2, inert3, target_val_delta=3, seed=4)
    Q, QE = _herm(ab, N=10)
    sp = QE.space
    d = inert3.jsq
    J = QE.J_op
    eyed = sp.mul(sp.arr(np.eye(QE.dim, dtype=np.int64)), d)
    assert np.array_equal(sp.matmul(J, J), eyed)
    for r in range(QE.v):
        Hre, Him = QE.herm_re[r], QE.herm_im[r]
        assert np.array_equal(Hre, Hre.T)
        assert np.array_equal(Him, sp.neg(Him.T))
        assert np.array_equal(sp.matmul(J.T, Hre), sp.mul(Him, d))
        assert np.array_equal(sp.matmul(J.T, Him), Hre)


def test_selfdual_budget():
    ab = _pi_pair(inert3, 4)
    o = build_order(ab)
    Q = build_quotient(o, 12)
    QE = build_hermitian_quotient(o, inert3, 12, fq=Q)
    with pytest.raises(BudgetExceeded):
        count_selfdual(QE, max_v=3)


def test_random_agreement_with_split_factorization():
    hits = 0
    for seed in range(30):
        for n in (1, 2):
            try:
                ab = rand_invariants(n, split3, target_val_delta=seed % 4,
                                     seed=seed)
            except TargetUnreachable:
                continue
            Q, QE = _herm(ab)
            assert count_selfdual(QE) == sum(enumerate_stable_submodules(Q))
            assert split_factor_check(Q, QE)
            hits += 1
        if hits >= 10:
            break
    assert hits >= 10


# -- polynomial helpers over the residue field -----------------------

k3 = gf_by_order(3)
k9 = gf_by_order(9)


def test_poly_divmod():
    # x^2 + 1 = (x + 1)(x + 2) + 2 over F_3
    quot, rem = _poly_divmod([1, 0, 1], [1, 1], k3)
    assert quot == [2, 1] and rem == [2]
    quot, rem = _poly_divmod([2, 1], [2, 1], k3)
    assert quot == [1] and rem == []
    quot, rem = _poly_divmod([1], [0, 0, 1], k3)
    assert quot == [] and rem == [1]


def test_matrix_min_poly():
    sp3 = KSpace(k3)
    nil = sp3.arr(np.array([[0, 0], [1, 0]]))
    assert _matrix_min_poly(sp3, nil) == [0, 0, 1]
    eye = sp3.arr(np.eye(3, dtype=np.int64))
    assert _matrix_min_poly(sp3, eye) == [2, 1]
    zero = sp3.zeros((2, 2))
    assert _matrix_min_poly(sp3, zero) == [0, 1]
    # companion matrix of an irreducible quadratic keeps it as min poly
    comp = sp3.arr(np.array([[0, 2], [1, 0]]))  # x^2 - 2 = x^2 + 1
    assert _matrix_min_poly(sp3, comp) == [1, 0, 1]


def test_matrix_min_poly_prime_power_field():
    sp9 = KSpace(k9)
    g = k9.least_nonresidue()
    M = sp9.arr(np.array([[g, 0], [0, g]]))
    # minimal polynomial x - g, normalized monic
    assert _matrix_min_poly(sp9, M) == [k9.neg[g], 1]


def test_distinct_irreducible_factors():
    # x^2 - x = x (x - 1)
    fs = _distinct_irreducible_factors(k3, [0, 2, 1])
    assert sorted(fs) == sorted([[0, 1], [2, 1]])
    # repeated factor collapses
    assert _distinct_irreducible_factors(k3, [0, 0, 1]) == [[0, 1]]
    # irreducible stays whole
    assert _distinct_irreducible_factors(k3, [1, 0, 1]) == [[1, 0, 1]]


def test_poly_apply_matches_direct_evaluation():
    sp = KSpace(k3)
    M = sp.arr(np.array([[1, 2, 0], [0, 1, 1], [2, 0, 1]]))
    poly = [2, 0, 1]  # M^2 + 2
    eye = sp.arr(np.eye(3, dtype=np.int64))
    want = sp.add(sp.matmul(M, M), sp.mul(eye, 2))
    assert np.array_equal(_poly_apply(sp, poly, M), want)
