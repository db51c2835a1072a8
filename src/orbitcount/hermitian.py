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
every chain inside a self-dual lattice stays isotropic) and the slices
of Q carried over to Q_E, where T acts as T + T and J as the scalar j.

Each step of the walk adds a simple module, which is a line over a
residue field of k[T, J], so walking those lines finds every self-dual
lattice (the walk's docstring has the argument).  For an irreducible
factor g of T's minimal polynomial, of degree f, k[T, J]/(g(T), J^2 - d)
is F[J]/(J^2 - d) with F = k[T]/(g).  When d is a square r(T)^2 in F
(always when split, where d = 1; when inert, exactly when f is even) it
is two copies of F, cut apart by J - r(T) and J + r(T), and each gives
a slice with basis T^a, a < f.  Otherwise (inert, f odd) it is the
field F_(q^2f), one slice with basis T^a J^b.  The walk checks that
every closed line grows by exactly the degree of its slice, so a T that
does not generate the ring modulo pi raises InvariantViolation instead
of losing lattices.  split_factor_check
rechecks split instances through the bijection with all stable
submodules.
"""

import numpy as np

from .errors import BudgetExceeded, require
from .kspace import EchelonBasis
from .order_lattices import (DEFAULT_MAX_V, _poly_apply, _sqrt_mod,
                             build_quotient, gaussian_binomial,
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
                 "herm_re", "herm_im", "desc", "slices")

    def __init__(self, v, space, P_op, T_op, J_op, ops, herm_re, herm_im,
                 desc, slices):
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
        self.slices = slices


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

    def lift(M):
        return _block2(space, M, zero, zero, M, v)

    lifted = [lift(M) for M in Q.ops]
    P2 = lifted[0]
    T2 = lift(Q.T_op)
    eye = space.arr(np.eye(v, dtype=np.int64))
    J2 = _block2(space, zero, space.mul(eye, d), eye, zero, v)
    herm_re = space.zeros((v, 2 * v, 2 * v))
    herm_im = space.zeros((v, 2 * v, 2 * v))
    for r in range(v):
        B = Q.pairing[r]
        herm_re[r] = _block2(space, B, zero, zero, space.neg(space.mul(B, d)), v)
        herm_im[r] = _block2(space, zero, space.neg(B), B, zero, v)
        # Hermitian symmetry and sesquilinearity in component form
        Hre, Him = herm_re[r], herm_im[r]
        require(np.array_equal(Hre, Hre.T)
                and np.array_equal(Him, space.neg(Him.T)),
                "Hermitian sheets are not (anti)symmetric")
        dHim = space.mul(Him, d)
        require(np.array_equal(space.matmul(J2.T, Hre), dHim)
                and np.array_equal(space.matmul(J2.T, Him), Hre)
                and np.array_equal(space.matmul(Hre, J2), space.neg(dHim))
                and np.array_equal(space.matmul(Him, J2), space.neg(Hre)),
                "Hermitian form is not sesquilinear in j")
        for M in lifted:
            require(all(np.array_equal(space.matmul(M.T, H),
                                       space.matmul(H, M))
                        for H in (Hre, Him)),
                    "Hermitian form is not equivariant")
    if v:
        stacked = np.concatenate([herm_re.reshape(v * 2 * v, 2 * v),
                                  herm_im.reshape(v * 2 * v, 2 * v)], axis=0)
        require(space.rank(stacked) == 2 * v, "Hermitian form is not perfect")

    slices = []
    for g, (cuts, powers) in zip(Q.factors, Q.slices):
        cuts = [lift(C) for C in cuts]
        basis = [lift(M) for M in powers]
        r = _sqrt_mod(d, g, space.k)
        if r is None:
            slices.append((cuts, basis + [space.matmul(J2, M) for M in basis]))
        else:
            R = lift(_poly_apply(space, r, Q.T_op))
            slices += [(cuts + [space.sub(J2, R)], basis),
                       (cuts + [space.add(J2, R)], basis)]
    return HermQuotient(v, space, P2, T2, J2, lifted + [J2], herm_re, herm_im,
                        desc, slices)


def selfdual_submodules(QE, max_v=DEFAULT_MAX_V):
    """Canonical bases of all self-dual stable subspaces of Q_E.

    Self-dual means stable and isotropic of dimension exactly v.  The
    subspace walk runs with the Hermitian sheets, so it keeps isotropic
    nodes only, and with the slices of Q_E.
    """
    v = QE.v
    space = QE.space
    if v > max_v:
        raise BudgetExceeded(
            f"quotient dimension {v} exceeds the enumeration budget {max_v}",
            estimate=gaussian_binomial(2 * v, v, space.k.q))
    sheets = [H for r in range(v) for H in (QE.herm_re[r], QE.herm_im[r])]
    nodes = walk(space, QE.dim, QE.P_op, QE.ops[1:], QE.slices, sheets, top=v)
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
    require(Q.desc.is_split, "split_factor_check needs a split quotient")
    space = Q.space
    v = Q.v
    expected = set()
    for S in stable_submodules(Q, max_v=max_v):
        eb = EchelonBasis(space, 2 * v)
        for s in S.basis_matrix():
            eb.insert(np.concatenate([s, s]))
        for u in torsion_dual(Q, S).basis_matrix():
            eb.insert(np.concatenate([u, space.neg(u)]))
        require(eb.dim == v, "split image of a stable S is not of dimension v")
        expected.add(eb.key())
    actual = {S.key() for S in selfdual_submodules(QE, max_v=max_v)}
    return expected == actual
