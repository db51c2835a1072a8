"""Field tables, batched k-linear algebra, and series matrix routines."""

import numpy as np
import pytest

from orbitcount.fqpoly import is_irreducible, monic
from orbitcount.gf import gf_by_order
from orbitcount.kspace import (EchelonBasis, KSpace, batch_form_vanishes,
                               batch_stable_mask, gaussian_binomial,
                               iter_rref_bases)
from orbitcount.linalg import (char_coeffs, mat_det, mat_identity, mat_mul,
                               mat_transpose, smith_normal_form)
from orbitcount.local_field import TruncSeries


@pytest.mark.parametrize("q", [3, 5, 9, 27])
def test_gf_tables_are_a_field(q):
    k = gf_by_order(q)
    assert k.q == q
    els = range(q)
    for a in els:
        assert k.add[a][0] == a and k.mul[a][1] == a and k.mul[a][0] == 0
        assert k.add[a][k.neg[a]] == 0
        if a:
            assert k.mul[a][k.inv[a]] == 1
        for b in els:
            assert k.add[a][b] == k.add[b][a]
            assert k.mul[a][b] == k.mul[b][a]
            assert k.sub[a][b] == k.add[a][k.neg[b]]
    # spot-check associativity and distributivity on a coarse grid
    pts = list(els)[:: max(1, q // 5)]
    for a in pts:
        for b in pts:
            for c in pts:
                assert k.add[k.add[a][b]][c] == k.add[a][k.add[b][c]]
                assert k.mul[k.mul[a][b]][c] == k.mul[a][k.mul[b][c]]
                assert k.mul[a][k.add[b][c]] == k.add[k.mul[a][b]][k.mul[a][c]]


@pytest.mark.parametrize("q", [3, 9])
def test_gf_squares_and_nonresidue(q):
    k = gf_by_order(q)
    squares = {k.mul[a][a] for a in range(1, q)}
    for a in range(1, q):
        assert k.is_square(a) == (a in squares)
    d = k.least_nonresidue()
    assert not k.is_square(d)
    assert len(squares) == (q - 1) // 2


@pytest.mark.parametrize("q", [3, 9])
def test_gf_pow(q):
    k = gf_by_order(q)
    for a in range(1, q):
        assert k.pow(a, q - 1) == 1
        assert k.pow(a, 0) == 1
        assert k.pow(a, 3) == k.mul[k.mul[a][a]][a]


@pytest.mark.parametrize("q", [3, 9])
def test_kspace_matches_tables(q):
    k = gf_by_order(q)
    sp = KSpace(k)
    rng = np.random.default_rng(1)
    A = sp.arr(rng.integers(0, q, size=(4, 3)))
    B = sp.arr(rng.integers(0, q, size=(3, 5)))
    got = sp.matmul(A, B)
    want = np.zeros((4, 5), dtype=np.int64)
    for i in range(4):
        for j in range(5):
            acc = 0
            for t in range(3):
                acc = k.add[acc][k.mul[A[i, t]][B[t, j]]]
            want[i, j] = acc
    assert np.array_equal(got, want)
    v = sp.arr(rng.integers(0, q, size=3))
    assert np.array_equal(sp.mat_vec(A, v), sp.matmul(A, v[None, :].T).ravel())
    C = sp.arr(rng.integers(0, q, size=(6, 4)))
    D = sp.arr(rng.integers(0, q, size=(6, 4)))
    dots = sp.dots(C, D)
    for i in range(6):
        acc = 0
        for t in range(4):
            acc = k.add[acc][k.mul[C[i, t]][D[i, t]]]
        assert dots[i] == acc
    if not sp.prime:
        with pytest.raises(ValueError):
            sp.matmul(sp.zeros((2, 2, 3)), sp.zeros((2, 2, 3, 4)))


@pytest.mark.parametrize("q", [3, 9])
def test_nullspace_and_rank(q):
    k = gf_by_order(q)
    sp = KSpace(k)
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = sp.arr(rng.integers(0, q, size=(4, 6)))
        ns = sp.right_nullspace(A)
        assert sp.rank(A) + len(ns) == 6
        if len(ns):
            assert not sp.matmul(A, ns.T).any()


def test_echelon_basis_canonical():
    sp = KSpace(gf_by_order(3))
    eb = EchelonBasis(sp, 4)
    assert eb.dim == 0 and not eb.contains(np.array([1, 0, 0, 0]))
    assert eb.insert(np.array([0, 1, 2, 0]))
    assert eb.insert(np.array([1, 1, 0, 1]))
    assert not eb.insert(np.array([1, 2, 2, 1]))  # sum of the first two
    assert eb.dim == 2
    assert eb.contains(sp.mul(np.array([0, 1, 2, 0]), 2))
    # canonical key: building in the other order gives the same bytes
    eb2 = EchelonBasis(sp, 4)
    eb2.insert(np.array([1, 2, 2, 1]))
    eb2.insert(np.array([0, 2, 1, 0]))
    assert eb.key() == eb2.key()
    red = eb.reduce(np.array([1, 0, 0, 0]))
    assert eb.contains(sp.sub(np.array([1, 0, 0, 0]), red))


def test_echelon_key_distinguishes_lines_past_int8():
    # 256 and 0 agree modulo 2^8, so a byte-wide key would merge these
    sp = KSpace(gf_by_order(257))
    keys = set()
    for row in ([1, 0], [1, 256]):
        eb = EchelonBasis(sp, 2)
        eb.insert(np.array(row))
        keys.add(eb.key())
    assert len(keys) == 2


@pytest.mark.parametrize("q,n,d", [(3, 4, 2), (3, 3, 1), (5, 3, 2), (9, 2, 1)])
def test_rref_enumeration_count(q, n, d):
    sp = KSpace(gf_by_order(q))
    total = 0
    seen = set()
    for W, piv in iter_rref_bases(sp, n, d):
        total += len(W)
        for basis in W:
            seen.add(basis.tobytes())
    assert total == gaussian_binomial(n, d, q)
    assert len(seen) == total


def _companion_of_irreducible(k, n):
    """Companion matrix of the first monic irreducible of degree n: it
    leaves no subspace of k^n other than 0 and k^n stable."""
    h = next(h for h in monic(n, k.q) if is_irreducible(h, k))
    C = np.zeros((n, n), dtype=np.int64)
    C[np.arange(1, n), np.arange(n - 1)] = 1
    C[:, n - 1] = [k.neg[c] for c in h[:n]]
    return C


def test_batch_masks_agree_with_direct_checks():
    for q in (3, 9):
        k = gf_by_order(q)
        sp = KSpace(k)
        rng = np.random.default_rng(3)
        M = sp.arr(rng.integers(0, q, size=(4, 4)))
        H = sp.arr(rng.integers(0, q, size=(4, 4)))
        H = sp.add(H, H.T)  # symmetric form
        none_stable = _companion_of_irreducible(k, 4)
        all_stable = np.eye(4, dtype=np.int64)
        for W, piv in iter_rref_bases(sp, 4, 2):
            stab = batch_stable_mask(sp, W, piv, M)
            iso = batch_form_vanishes(sp, W, H)
            for t in range(len(W)):
                eb = EchelonBasis(sp, 4)
                for row in W[t]:
                    eb.insert(row)
                direct = all(eb.contains(sp.mat_vec(M, row)) for row in W[t])
                assert bool(stab[t]) == direct
                G = sp.matmul(sp.matmul(W[t], H), W[t].T)
                assert bool(iso[t]) == (not G.any())
            assert not batch_stable_mask(sp, W, piv, none_stable).any()
            assert batch_stable_mask(sp, W, piv, all_stable).all()
            # staged scans hand on batches that no basis survived
            empty = W[:0]
            assert batch_stable_mask(sp, empty, piv, M).shape == (0,)
            assert batch_form_vanishes(sp, empty, H).shape == (0,)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(2, 1, 5) == 6
    assert gaussian_binomial(6, 0, 3) == 1
    assert gaussian_binomial(3, 3, 7) == 1


k3 = gf_by_order(3)
z3 = TruncSeries.zero(k3)
o3 = TruncSeries.one(k3)


def _series_mat(rng, n, maxdeg=2):
    return [[TruncSeries(k3, [int(rng.integers(0, 3)) for _ in range(maxdeg + 1)], 0)
             for _ in range(n)] for _ in range(n)]


def test_mat_det_and_char_coeffs():
    pi = TruncSeries.pi_pow(k3, 1)
    A = [[pi, o3], [z3, pi]]
    assert mat_det(A, z3, o3).agrees_with(pi * pi)
    cs = char_coeffs(A, z3, o3)
    assert len(cs) == 2
    assert cs[0].agrees_with(pi + pi)      # trace
    assert cs[1].agrees_with(pi * pi)      # determinant
    B = [[o3, pi], [pi, o3]]
    assert mat_det(B, z3, o3).agrees_with(o3 - pi * pi)


def test_smith_normal_form_diagonalizes():
    rng = np.random.default_rng(11)
    done = 0
    while done < 15:
        n = int(rng.integers(2, 4))
        M = _series_mat(rng, n)
        dv = mat_det(M, z3, o3).val()
        if dv is None or dv > 6:
            continue
        N = 12
        U, Uinv, V, dexps = smith_normal_form(M, N)
        assert dexps == sorted(dexps)
        assert sum(dexps) == dv
        D = mat_mul(mat_mul(U, M, z3), V, z3)
        for i in range(n):
            for j in range(n):
                want = TruncSeries.pi_pow(k3, dexps[i]) if i == j else z3
                assert D[i][j].agrees_with(want)
        Id = mat_mul(U, Uinv, z3)
        eye = mat_identity(n, z3, o3)
        for i in range(n):
            for j in range(n):
                assert Id[i][j].agrees_with(eye[i][j])
        done += 1


def test_mat_transpose_involution():
    rng = np.random.default_rng(2)
    M = _series_mat(rng, 3)
    back = mat_transpose(mat_transpose(M))
    for i in range(3):
        for j in range(3):
            assert back[i][j] is M[i][j]
