"""Self-dual counting, its quotient structure, and the slicing helpers."""

import os
import subprocess
import sys

import numpy as np
import pytest

import orbitcount
from conftest import build_pipeline
from orbitcount import hermitian
from orbitcount.errors import BudgetExceeded, TargetUnreachable
from orbitcount.fqpoly import is_irreducible, monic, mulmod, sqrt_mod
from orbitcount.gf import gf_by_order
from orbitcount.hermitian import (build_hermitian_quotient, count_selfdual,
                                  jsq_is_square, lattice_counts,
                                  selfdual_submodules, split_factor_check)
from orbitcount.invariants import InvariantPair
from orbitcount.kspace import KSpace
from orbitcount.local_field import EElem, TruncSeries, field_desc
from orbitcount.order_lattices import (_matrix_min_poly, _poly_apply,
                                       build_order, build_quotient,
                                       enumerate_stable_submodules,
                                       form_sheets, walk)
from orbitcount.verify import rand_invariants, verify_count_identity

inert3 = field_desc(3, "inert")
split3 = field_desc(3, "split")


def _pi_pair(desc, e):
    b0 = EElem.from_real(desc, TruncSeries.pi_pow(desc.k, e))
    return InvariantPair([EElem.zero(desc)], [b0], desc).truncated(10)


def _every_sheet(QE):
    """All 2v sheets of the Hermitian form, re_r and im_r for r = 1..v,
    derived from the stored pair."""
    return (form_sheets(QE.space, QE.herm_re, QE.P_op, QE.v)
            + form_sheets(QE.space, QE.herm_im, QE.P_op, QE.v))


def _herm(ab, N=10):
    o = build_order(ab)
    Q = build_quotient(o, N)
    return Q, build_hermitian_quotient(o, ab.desc, N, fq=Q)


def test_inert_even_chain():
    Q, QE = _herm(_pi_pair(inert3, 2))
    assert QE.dim == 4 and QE.v == 2
    assert count_selfdual(Q) == 1


def test_inert_odd_chain_has_none():
    Q, _ = _herm(_pi_pair(inert3, 3))
    assert count_selfdual(Q) == 0


def test_split_chain_matches_sum():
    Q, QE = _herm(_pi_pair(split3, 3))
    m = enumerate_stable_submodules(Q)
    N = count_selfdual(Q)
    assert sum(m) == N == 4
    assert split_factor_check(Q, QE)


def test_selfdual_nodes_are_stable_isotropic():
    Q, QE = _herm(_pi_pair(split3, 2))
    sp = QE.space
    for S in selfdual_submodules(QE):
        assert S.dim == QE.v
        W = S.basis_matrix()
        for H in _every_sheet(QE):
            assert not sp.matmul(sp.matmul(W, H), W.T).any()
        for M in QE.ops:
            for row in W:
                assert S.contains(sp.mat_vec(M, row))


def test_hermitian_sheet_symmetry():
    for desc in (inert3, split3):
        ab = rand_invariants(2, desc, target_val_delta=3, seed=4)
        Q, QE = _herm(ab, N=10)
        sp = QE.space
        d = desc.jsq
        J = QE.J_op
        eyed = sp.mul(sp.arr(np.eye(QE.dim, dtype=np.int64)), d)
        assert np.array_equal(sp.matmul(J, J), eyed)
        assert QE.herm_re.shape == QE.herm_im.shape == (QE.dim, QE.dim)
        res = form_sheets(sp, QE.herm_re, QE.P_op, QE.v)
        ims = form_sheets(sp, QE.herm_im, QE.P_op, QE.v)
        for Hre, Him in zip(res, ims):
            assert np.array_equal(Hre, Hre.T)
            assert np.array_equal(Him, sp.neg(Him.T))
            assert np.array_equal(sp.matmul(J.T, Hre), sp.mul(Him, d))
            assert np.array_equal(sp.matmul(J.T, Him), Hre)
        if desc.is_split:
            # j's eigen-coordinates: J = diag(I, -I), ops diag(M, M), and
            # the form pairs the halves through B / 2
            zero = sp.zeros((QE.v, QE.v))
            eye = np.eye(QE.v, dtype=np.int64)
            assert np.array_equal(
                J, np.block([[eye, zero], [zero, sp.neg(eye)]]))
            for M, ME in zip(Q.ops, QE.ops):
                assert np.array_equal(ME, np.block([[M, zero], [zero, M]]))
            half = sp.mul(Q.pairing, 2)     # 2 = 1/2 modulo 3
            assert np.array_equal(QE.herm_re,
                                  np.block([[zero, half], [half, zero]]))
            assert np.array_equal(
                QE.herm_im, np.block([[zero, half], [sp.neg(half), zero]]))


@pytest.mark.parametrize("q,top", [(3, 4), (5, 4), (9, 3)])
@pytest.mark.parametrize("ext", ["inert", "split"])
def test_degree_rule_matches_sqrt_mod(q, top, ext):
    """j^2 is a square modulo g exactly when the degree rule says so, for
    every monic irreducible g up to degree top."""
    desc = field_desc(q, ext)
    k = desc.k
    for f in range(1, top + 1):
        for g in monic(f, q):
            if is_irreducible(g, k):
                assert jsq_is_square(desc, g) == (
                    sqrt_mod(desc.jsq, g, k) is not None), g


def test_verdicts_never_call_sqrt_mod(monkeypatch):
    """The degree rule routes every block, so a verdict takes no square
    root: a split row, an inert row with one factor of degree 2 and an
    inert row with one linear factor all pass with sqrt_mod refusing."""
    def refuse(*args):
        raise AssertionError("a verdict called sqrt_mod")

    monkeypatch.setattr(hermitian, "sqrt_mod", refuse)
    for n, q, ext, v, seed, family, degrees, m, N in [
            (2, 3, "split", 4, 1, "generic", [1, 1], [1, 2, 3, 2, 1], 9),
            (2, 3, "inert", 4, 0, "irreducible", [2], [1, 0, 1, 0, 1], 3),
            (2, 5, "inert", 4, 1, "generic", [1], [1, 1, 6, 1, 1], 6)]:
        ab = rand_invariants(n, field_desc(q, ext), v, seed=seed,
                             family=family)
        vd = verify_count_identity(ab)
        assert vd.passed and (vd.m, vd.N) == (m, N)
        assert [len(g) - 1 for g in vd.quotient.factors] == degrees


def test_selfdual_budget(monkeypatch):
    """ORBITAL_BUDGET caps each block's walk for the count and the one
    walk over Q_E for the lister.  On a block where j^2 is a square the
    count's walk is the block's stable walk, on any other block the walk
    of its double."""
    # split, two blocks of dimension 1: each stable walk closes 1 line,
    # each doubled block would close 2, the whole Q_E closes 12
    ab = rand_invariants(2, field_desc(5, "split"), 2, seed=3)
    Q = build_quotient(build_order(ab), 10)
    QE = build_hermitian_quotient(None, ab.desc, None, fq=Q)
    monkeypatch.setenv("ORBITAL_BUDGET", "1")
    assert count_selfdual(Q) == 4
    with pytest.raises(BudgetExceeded) as exc:
        selfdual_submodules(QE)
    assert 1 < exc.value.estimate <= 12
    monkeypatch.setenv("ORBITAL_BUDGET", "0")
    with pytest.raises(BudgetExceeded) as exc:
        count_selfdual(build_quotient(build_order(ab), 10))
    assert exc.value.estimate == 1
    monkeypatch.setenv("ORBITAL_BUDGET", "12")
    assert len(selfdual_submodules(QE)) == 4

    # inert, one block of degree 1 (not a square): its stable walk
    # closes 14 lines and the walk of its double 27
    ab = rand_invariants(2, field_desc(5, "inert"), 4, seed=1)
    Q = build_quotient(build_order(ab), 10)
    assert [len(g) - 1 for g in Q.factors] == [1]
    monkeypatch.setenv("ORBITAL_BUDGET", "14")
    assert enumerate_stable_submodules(Q) == [1, 1, 6, 1, 1]
    with pytest.raises(BudgetExceeded) as exc:
        count_selfdual(Q)
    assert 14 < exc.value.estimate <= 27
    monkeypatch.setenv("ORBITAL_BUDGET", "27")
    assert count_selfdual(Q) == 6


def test_selfdual_count_of_quotient_doubles_blocks_only(monkeypatch):
    """Given Q, count_selfdual doubles to Q_g + j Q_g only the blocks of
    Q where j^2 is not a square modulo g, never the whole Q_E; the
    square blocks count pairs of their stable submodules."""
    built = []
    real = hermitian.build_hermitian_quotient

    def spy(*args, fq=None):
        built.append(fq.v)
        return real(*args, fq=fq)

    monkeypatch.setattr(hermitian, "build_hermitian_quotient", spy)
    # split, two blocks of dimension 1: both square
    ab = rand_invariants(2, field_desc(5, "split"), 2, seed=3)
    Q = build_quotient(build_order(ab), 10)
    assert lattice_counts(Q) == ([1, 2, 1], 4)
    assert built == []
    QE = build_hermitian_quotient(None, ab.desc, None, fq=Q)
    assert len(selfdual_submodules(QE)) == 4

    # inert, blocks of degree 1 (not a square) and 2 (a square), each
    # of dimension 2: only the first is doubled
    del built[:]
    ab = rand_invariants(3, field_desc(5, "inert"), 4, seed=0)
    Q = build_quotient(build_order(ab), 10)
    assert [len(g) - 1 for g in Q.factors] == [1, 2]
    assert [B.v for B in Q.blocks] == [2, 2]
    assert lattice_counts(Q) == ([1, 1, 2, 1, 1], 2)
    assert built == [2]
    QE = build_hermitian_quotient(None, ab.desc, None, fq=Q)
    assert len(selfdual_submodules(QE)) == 2


# Drops the whole block from its stable walk's nodes before the
# self-dual count pairs them, so the zero submodule finds no partner;
# prints __debug__ so the test can tell that -O really stripped asserts.
DROPPED_NODE = """
from orbitcount.errors import InvariantViolation
from orbitcount.hermitian import count_selfdual
from orbitcount.local_field import field_desc
from orbitcount.order_lattices import build_order, build_quotient
from orbitcount.verify import rand_invariants

print(__debug__)
ab = rand_invariants(2, field_desc(3, "split"), 3, seed=0)
Q = build_quotient(build_order(ab), 10)
B = Q.blocks[0]
B.submodules.remove(next(S for S in B.submodules if S.dim == B.v))
try:
    count_selfdual(Q)
except InvariantViolation as exc:
    print(exc)
    raise SystemExit(0)
raise SystemExit(1)
"""


@pytest.mark.parametrize("flags,debug", [([], "True"), (["-O"], "False")])
def test_pair_count_rejects_a_lost_node(flags, debug):
    src = os.path.dirname(os.path.dirname(orbitcount.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *flags, "-c", DROPPED_NODE],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split("\n")[0] == debug
    assert "0 orthogonal partners" in proc.stdout


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
            assert count_selfdual(Q) == sum(enumerate_stable_submodules(Q))
            assert split_factor_check(Q, QE)
            hits += 1
        if hits >= 10:
            break
    assert hits >= 10


# -- polynomial helpers over the residue field -----------------------

k3 = gf_by_order(3)
k9 = gf_by_order(9)


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
    sliced = walk(QE.space, QE.dim, QE.P_op, QE.ops[1:], QE.slices,
                  form=QE.herm_re, top=QE.v)
    lines = walk(QE.space, QE.dim, QE.P_op, QE.ops[1:], (), form=QE.herm_re,
                 top=QE.v)
    assert {S.key() for S in sliced} == {S.key() for S in lines}


def _one_sheet_matches_every_sheet(QE):
    """The walk given the form re_1 keeps exactly the stable subspaces
    of dimension at most v that every one of the 2v sheets vanishes on,
    found here by the walk without a form."""
    sp = QE.space
    args = (sp, QE.dim, QE.P_op, QE.ops[1:], QE.slices)
    every = _every_sheet(QE)
    want = set()
    for S in walk(*args, top=QE.v):
        W = S.basis_matrix()
        if not any(sp.matmul(sp.matmul(W, H), W.T).any() for H in every):
            want.add(S.key())
    assert {S.key() for S in walk(*args, form=QE.herm_re, top=QE.v)} == want


@pytest.mark.parametrize("case", [
    (2, 3, "split", 3, 0), (2, 3, "inert", 3, 0), (2, 5, "inert", 2, 0),
    (2, 9, "inert", 2, 0), (2, 9, "split", 2, 0),
    (3, 5, "split", 3, 0, "irreducible"), (3, 5, "inert", 3, 0, "irreducible"),
    (3, 3, "split", 3, 6), (3, 3, "inert", 3, 1),
])
def test_selfdual_walk_needs_one_sheet(case):
    """Given re_1 alone the walk keeps the nodes that all 2v sheets keep
    (the argument is in hermitian.selfdual_submodules)."""
    QE = _pipeline(*case)[1]
    _one_sheet_matches_every_sheet(QE)
    assert {S.key() for S in selfdual_submodules(QE)} == {
        S.key() for S in walk(QE.space, QE.dim, QE.P_op, QE.ops[1:],
                              QE.slices, form=QE.herm_re, top=QE.v)
        if S.dim == QE.v}


@pytest.mark.parametrize("n,q,ext,v,seed", [
    (2, 3, "split", 14, 1), (2, 3, "inert", 14, 0), (2, 3, "inert", 20, 1),
])
def test_selfdual_walk_needs_one_sheet_deep(n, q, ext, v, seed):
    """The same on the v = 14 and v = 20 rows, block by block."""
    Q = _pipeline(n, q, ext, v, seed)[0]
    for B in Q.blocks:
        _one_sheet_matches_every_sheet(
            build_hermitian_quotient(None, Q.desc, None, fq=B))


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
        r = sqrt_mod(d, g, sp.k)
        if r is None:
            assert not QE.desc.is_split and f % 2 == 1
            mine = QE.slices[at:at + 1]
        else:
            assert mulmod(r, r, g, sp.k) == [d] + [0] * (f - 1)
            mine = QE.slices[at:at + 2]
        at += len(mine)
        gT = _poly_apply(sp, g, QE.ops[1])
        kernel = QE.dim - sp.rank(gT)
        assert sum(QE.dim - sp.rank(np.concatenate(cuts + [gT], axis=0))
                   for cuts, _ in mine) == kernel
    assert at == len(QE.slices)
