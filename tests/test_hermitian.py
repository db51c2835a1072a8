"""Self-dual counting, its quotient structure, and the slicing helpers."""

import numpy as np
import pytest

from conftest import build_pipeline
from orbitcount.errors import BudgetExceeded, TargetUnreachable
from orbitcount.gf import gf_by_order
from orbitcount.hermitian import (build_hermitian_quotient, count_selfdual,
                                  selfdual_submodules, split_factor_check)
from orbitcount.invariants import InvariantPair
from orbitcount.kspace import KSpace
from orbitcount.local_field import EElem, TruncSeries, field_desc
from orbitcount.order_lattices import (_distinct_irreducible_factors,
                                       _matrix_min_poly, _poly_apply,
                                       _poly_divmod, _poly_pow_mod, _sqrt_mod,
                                       build_order, build_quotient,
                                       enumerate_stable_submodules, walk)
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
        for H in list(QE.herm_re) + list(QE.herm_im):
            assert not sp.matmul(sp.matmul(W, H), W.T).any()
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


# -- the walk's residue-field slices ---------------------------------

def _pipeline(n, q, ext, v, seed, family="generic"):
    ab = rand_invariants(n, field_desc(q, ext), v, seed=seed, family=family)
    return build_pipeline(ab)[1:3]


@pytest.mark.parametrize("case,degrees,sizes", [
    # split, two linear factors: J = +-1 halves each
    ((2, 3, "split", 3, 0), [1, 1], [1, 1, 1, 1]),
    # inert, odd degree: one slice F_(q^2) per factor
    ((2, 3, "inert", 3, 0), [1, 1], [2, 2]),
    # inert, even degree: d becomes a square and J splits
    ((2, 5, "inert", 2, 0), [2], [2, 2]),
    ((2, 9, "inert", 2, 0), [2], [2, 2]),
    ((2, 9, "split", 2, 0), [1, 1], [1, 1, 1, 1]),
    # n = 3, irreducible at v = 3: F_(q^3), and F_(q^6) when inert
    ((3, 5, "split", 3, 0, "irreducible"), [3], [3, 3]),
    ((3, 5, "inert", 3, 0, "irreducible"), [3], [6]),
    # p <= n
    ((3, 3, "split", 3, 6), [1, 2], [1, 1, 2, 2]),
    ((3, 3, "inert", 3, 1), [3], [6]),
])
def test_sliced_walk_matches_line_walk(case, degrees, sizes):
    Q, QE = _pipeline(*case)
    assert [len(g) - 1 for g in Q.factors] == degrees
    assert [len(basis) for _, basis in QE.slices] == sizes
    sliced = walk(Q.space, Q.v, Q.P_op, Q.ops[1:], Q.slices)
    lines = walk(Q.space, Q.v, Q.P_op, Q.ops[1:], slices=())
    assert {S.key() for S in sliced} == {S.key() for S in lines}
    sheets = [H for r in range(QE.v) for H in (QE.herm_re[r], QE.herm_im[r])]
    sliced = walk(QE.space, QE.dim, QE.P_op, QE.ops[1:], QE.slices, sheets,
                  top=QE.v)
    lines = walk(QE.space, QE.dim, QE.P_op, QE.ops[1:], (), sheets, top=QE.v)
    assert {S.key() for S in sliced} == {S.key() for S in lines}


@pytest.mark.parametrize("case", [
    (2, 3, "split", 3, 0), (2, 3, "inert", 3, 0), (2, 5, "inert", 2, 0),
    (2, 9, "inert", 2, 0), (3, 3, "split", 3, 6),
])
def test_slices_split_each_factor_kernel(case):
    # Q_E's slices come one or two per factor g of T, in Q's order; the
    # J-cuts split ker g(T) into two halves
    Q, QE = _pipeline(*case)
    sp = QE.space
    d = QE.desc.jsq
    at = 0
    for g in Q.factors:
        f = len(g) - 1
        r = _sqrt_mod(d, g, sp.k)
        if r is None:
            assert not QE.desc.is_split and f % 2 == 1
            mine = QE.slices[at:at + 1]
        else:
            assert _poly_pow_mod(r, 2, g, sp.k) == [d] + [0] * (f - 1)
            mine = QE.slices[at:at + 2]
        at += len(mine)
        gT = _poly_apply(sp, g, QE.T_op)
        kernel = QE.dim - sp.rank(gT)
        assert sum(QE.dim - sp.rank(np.concatenate(cuts + [gT], axis=0))
                   for cuts, _ in mine) == kernel
    assert at == len(QE.slices)


def test_sqrt_mod_small_fields():
    # 2 is a non-square of F_3 and a square in F_9 = F_3[x]/(x^2 + 1)
    r = _sqrt_mod(2, [1, 0, 1], k3)
    assert _poly_pow_mod(r, 2, [1, 0, 1], k3) == [2, 0]
    assert _sqrt_mod(2, [0, 1], k3) is None
    assert _sqrt_mod(1, [0, 1], k3) in ([1], [2])
    assert _sqrt_mod(k9.least_nonresidue(), [0, 1], k9) is None
