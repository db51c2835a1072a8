"""Self-dual lattice counting on the Hermitian side.

Base-changing the order quotient Q along O_E gives Q_E = Q + j Q of
k-dimension 2v, a module under pi, jt and the scalar j.  The form
(x, y) -> b'(x sigma_R(y)) is Hermitian with values in E/O_E; writing
x = xr + j xi it splits into two k-bilinear component forms

    re = B(xr, yr) - d B(xi, yi)      im = B(xi, yr) - B(xr, yi)

with B the torsion form on Q and d = j^2, so one subspace-orthogonality
kernel serves both the inert and split cases.  Self-dual lattices are
exactly the stable isotropic subspaces of dimension v.  They are found
by order_lattices.walk, the walk behind the general-linear count, given
the component forms as sheets (which prunes it to isotropic nodes:
every chain inside a self-dual lattice stays isotropic) and one slice
per irreducible factor of the minimal polynomial of T.  The small
F_q[x] helpers here find those factors.  split_factor_check rechecks
split instances through the bijection with all stable submodules.
"""

import numpy as np

from .errors import BudgetExceeded
from .kspace import EchelonBasis
from .order_lattices import (DEFAULT_MAX_V, build_quotient, gaussian_binomial,
                             stable_submodules, torsion_dual, walk)


class HermQuotient:
    """Q_E with operators P, T, J and the two component forms.

    herm_re[r-1] and herm_im[r-1] hold the coefficient of pi^(-r) of
    the real and imaginary parts of the Hermitian pairing, as 2v x 2v
    symmetric resp. antisymmetric matrices over k.  ops carries every
    lifted module generator plus J, so stability means stability over
    the full ring after base change.
    """

    __slots__ = ("v", "dim", "space", "P_op", "T_op", "J_op", "ops",
                 "herm_re", "herm_im", "desc")

    def __init__(self, v, space, P_op, T_op, J_op, ops, herm_re, herm_im, desc):
        self.v = v
        self.dim = 2 * v
        self.space = space
        self.P_op = P_op
        self.T_op = T_op
        self.J_op = J_op
        self.ops = ops
        self.herm_re = herm_re
        self.herm_im = herm_im
        self.desc = desc


def _block2(space, a, b, c, d, v):
    out = space.zeros((2 * v, 2 * v))
    out[:v, :v] = a
    out[:v, v:] = b
    out[v:, :v] = c
    out[v:, v:] = d
    return out


def build_hermitian_quotient(order, desc, N, fq=None):
    """Assemble Q_E from the order quotient (rebuilt unless passed in)."""
    Q = fq if fq is not None else build_quotient(order, N)
    space = Q.space
    v = Q.v
    d = desc.jsq
    zero = space.zeros((v, v))
    lifted = [_block2(space, M, zero, zero, M, v) for M in Q.ops]
    P2 = lifted[0]
    T2 = _block2(space, Q.T_op, zero, zero, Q.T_op, v)
    eye = space.arr(np.eye(v, dtype=np.int64))
    J2 = _block2(space, zero, space.mul(eye, d), eye, zero, v)
    herm_re = space.zeros((v, 2 * v, 2 * v))
    herm_im = space.zeros((v, 2 * v, 2 * v))
    for r in range(v):
        B = Q.pairing[r]
        herm_re[r] = _block2(space, B, zero, zero, space.neg(space.mul(B, d)), v)
        herm_im[r] = _block2(space, zero, space.neg(B), B, zero, v)
        # Hermitian symmetry and sesquilinearity in component form
        assert np.array_equal(herm_re[r], herm_re[r].T)
        assert np.array_equal(herm_im[r], space.neg(herm_im[r].T))
        assert np.array_equal(space.matmul(J2.T, herm_re[r]), space.mul(herm_im[r], d))
        assert np.array_equal(space.matmul(J2.T, herm_im[r]), herm_re[r])
        assert np.array_equal(space.matmul(herm_re[r], J2), space.neg(space.mul(herm_im[r], d)))
        assert np.array_equal(space.matmul(herm_im[r], J2), space.neg(herm_re[r]))
        for M in lifted:
            assert np.array_equal(space.matmul(M.T, herm_re[r]), space.matmul(herm_re[r], M))
            assert np.array_equal(space.matmul(M.T, herm_im[r]), space.matmul(herm_im[r], M))
    if v:
        stacked = np.concatenate([herm_re.reshape(v * 2 * v, 2 * v),
                                  herm_im.reshape(v * 2 * v, 2 * v)], axis=0)
        assert space.rank(stacked) == 2 * v
    return HermQuotient(v, space, P2, T2, J2, lifted + [J2], herm_re, herm_im, desc)


def _poly_divmod(num, den, k):
    # little-endian coefficient lists of field element indices, den monic
    num = list(num)
    inv_lead = k.inv[den[-1]]
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        c = k.mul[num[i + len(den) - 1]][inv_lead]
        if c:
            quot[i] = c
            for j, d in enumerate(den):
                num[i + j] = k.sub[num[i + j]][k.mul[c][d]]
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _matrix_min_poly(space, M):
    """Monic minimal polynomial of M over k, little-endian."""
    k = space.k
    dim = len(M)
    flats = [np.ravel(space.arr(np.eye(dim, dtype=np.int64)))]
    power = space.arr(np.eye(dim, dtype=np.int64))
    for _ in range(dim):
        power = space.matmul(power, M)
        flats.append(np.ravel(power))
        rel = space.right_nullspace(np.stack(flats).T)
        if len(rel):
            c = rel[0]
            inv_lead = k.inv[int(c[-1])]
            return [k.mul[int(x)][inv_lead] for x in c]
    raise AssertionError("no annihilating polynomial up to the dimension")


def _distinct_irreducible_factors(k, poly):
    """Distinct monic irreducible factors, by smallest-divisor trial division."""
    from itertools import product
    out = []
    rest = list(poly)
    while len(rest) > 1:
        deg = len(rest) - 1
        found = None
        for e in range(1, deg // 2 + 1):
            for tail in product(range(k.q), repeat=e):
                den = list(tail) + [1]
                quot, rem = _poly_divmod(rest, den, k)
                if not rem:
                    found = (den, quot)
                    break
            if found:
                break
        if found is None:
            # no proper divisor of low degree, so the rest is irreducible
            inv_lead = k.inv[rest[-1]]
            den = [k.mul[c][inv_lead] for c in rest]
            found = (den, [1])
        den, rest = found
        if den not in out:
            out.append(den)
        # strip any repeated copies of this factor
        while True:
            quot, rem = _poly_divmod(rest, den, k)
            if rem:
                break
            rest = quot
    return out


def _poly_apply(space, poly, M):
    dim = len(M)
    eye = space.arr(np.eye(dim, dtype=np.int64))
    out = space.zeros((dim, dim))
    for c in reversed(poly):
        out = space.matmul(out, M)
        if c:
            out = space.add(out, space.mul(eye, int(c)))
    return out


def selfdual_submodules(QE, max_v=DEFAULT_MAX_V):
    """Canonical bases of all self-dual stable subspaces of Q_E.

    Self-dual means stable and isotropic of dimension exactly v.  The
    subspace walk runs with the Hermitian sheets, so it keeps isotropic
    nodes only, and with one slice per irreducible factor of the
    minimal polynomial of T.
    """
    v = QE.v
    space = QE.space
    if v > max_v:
        raise BudgetExceeded(
            f"quotient dimension {v} exceeds the enumeration budget {max_v}",
            estimate=gaussian_binomial(2 * v, v, space.k.q))
    slices = [_poly_apply(space, g, QE.T_op)
              for g in _distinct_irreducible_factors(
                  space.k, _matrix_min_poly(space, QE.T_op))] if v else []
    sheets = [H for r in range(v) for H in (QE.herm_re[r], QE.herm_im[r])]
    nodes = walk(space, QE.dim, QE.P_op, QE.ops[1:], slices, sheets, top=v)
    return [S for S in nodes if S.dim == v]


def count_selfdual(QE, max_v=DEFAULT_MAX_V):
    """#N: self-dual stable lattices between R(O_E) and its dual."""
    return len(selfdual_submodules(QE, max_v=max_v))


def split_factor_check(Q, QE, max_v=DEFAULT_MAX_V):
    """Verify the split-case bijection S -> (S, torsion dual of S).

    In split coordinates a self-dual lattice is a pair (S, S-perp);
    in (re, im) coordinates that subspace is spanned by (s | s) for s
    in S and (u | -u) for u in the torsion dual.  True iff the images
    of all stable S exactly exhaust the independently enumerated
    self-dual set.
    """
    assert Q.desc.is_split
    space = Q.space
    v = Q.v
    expected = set()
    for S in stable_submodules(Q, max_v=max_v):
        eb = EchelonBasis(space, 2 * v)
        for s in S.basis_matrix():
            eb.insert(np.concatenate([s, s]))
        for u in torsion_dual(Q, S).basis_matrix():
            eb.insert(np.concatenate([u, space.neg(u)]))
        assert eb.dim == v
        expected.add(eb.key())
    actual = {S.key() for S in selfdual_submodules(QE, max_v=max_v)}
    return expected == actual
