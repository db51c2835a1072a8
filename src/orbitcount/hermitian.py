"""Self-dual lattice counting on the Hermitian side.

Base-changing the order quotient Q along O_E gives Q_E = Q + j Q of
k-dimension 2v, a module under pi, jt and the scalar j.  The form
(x, y) -> b'(x sigma_R(y)) is Hermitian with values in E/O_E; writing
x = xr + j xi it splits into two k-bilinear component forms

    re = B(xr, yr) - d B(xi, yi)      im = B(xi, yr) - B(xr, yi)

with B the torsion form on Q and d = j^2, so one subspace-orthogonality
kernel serves both the inert and split cases.  Like Q, Q_E stores one
sheet of each: re and im built from Q's pi^(-1) sheet, their pi^(-r)
sheets being re P^(r-1) and im P^(r-1).  Self-dual lattices are exactly
the stable isotropic subspaces of dimension v.  They are found by
order_lattices.walk, the walk behind the general-linear count, given
the one form re (which prunes it to isotropic nodes: every chain inside
a self-dual lattice stays isotropic) and the slices of Q carried over
to Q_E, where T acts as T + T and J as the scalar j.

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

Q_E splits over the factors of T as Q does: its blocks are the doubles
Q_g + j Q_g of Q's blocks, stable under every operator and orthogonal
under both forms.  A stable L is the sum of its parts L_g, and its
orthogonal is the sum of theirs, so L is self-dual exactly when every
L_g is self-dual in its block: N is the product of the blocks' counts.

A block whose d is a square r(T)^2 modulo its g is never doubled.  As
p is odd and g(T) is nilpotent on Q_g, Hensel's lemma lifts r to r~
with r~(T)^2 = d on Q_g, so J^2 = r~(T)^2 and the double is the sum of
the halves H+- = ker(J -+ r~(T)) = {(+-r~(T) y, y)} (coordinates
x = xr + j xi).  y -> (+-r~(T) y, y) makes each half a copy of the
module Q_g, J acting on it as the polynomial +-r~(T) in T, so a stable
L is A+ + A'- for stable submodules A, A' of Q_g.  re vanishes on each
half (B(r~ y, r~ y') = d B(y, y'), T being self-adjoint) and pairs
(y+, y'-) to -2d B(y, y'), so L is self-dual exactly when A and A' are
orthogonal under B and dim A + dim A' = v_g, that is when A' is the
torsion dual of A.  count_selfdual counts those pairs among the
block's stable submodules, which its stable walk has already listed;
r~ itself is never built.  The other blocks (inert, f odd) are doubled
and walked on their own; selfdual_submodules lists over the whole of
Q_E and is the oracle for both counts.
"""

import numpy as np

from .errors import require
from .fqpoly import sqrt_mod
from .kspace import EchelonBasis
from .order_lattices import (_poly_apply, build_quotient,
                             enumerate_stable_submodules, stable_submodules,
                             torsion_dual, walk)


class HermQuotient:
    """Q_E with operators P, T, J and the two component forms.

    herm_re and herm_im hold the coefficient of pi^(-1) of the real and
    imaginary parts of the Hermitian pairing, as 2v x 2v symmetric
    resp. antisymmetric matrices over k, built from Q's one sheet B.
    As on Q, the coefficient of pi^(-r) is herm_re P^(r-1) resp.
    herm_im P^(r-1), with P = P_op (form_sheets).  ops carries every
    lifted module generator plus J, so stability means stability over
    the full ring after base change.  base is the quotient Q it doubles;
    slices are built on first use.
    """

    __slots__ = ("v", "dim", "space", "P_op", "J_op", "ops", "herm_re",
                 "herm_im", "desc", "base", "_slices")

    def __init__(self, v, space, P_op, J_op, ops, herm_re, herm_im, desc,
                 base):
        self.v = v
        self.dim = 2 * v
        self.space = space
        self.P_op = P_op
        self.J_op = J_op
        self.ops = ops
        self.herm_re = herm_re
        self.herm_im = herm_im
        self.desc = desc
        self.base = base
        self._slices = None

    @property
    def slices(self):
        if self._slices is None:
            self._slices = _hermitian_slices(self)
        return self._slices


def _block2(space, a, b, c, d, v):
    out = space.zeros((2 * v, 2 * v))
    out[:v, :v] = a
    out[:v, v:] = b
    out[v:, :v] = c
    out[v:, v:] = d
    return out


def _lift(space, M, v):
    zero = space.zeros((v, v))
    return _block2(space, M, zero, zero, M, v)


def build_hermitian_quotient(order, desc, N, fq=None):
    """Assemble Q_E from the order quotient (rebuilt unless passed in)."""
    Q = fq if fq is not None else build_quotient(order, N)
    space = Q.space
    v = Q.v
    d = desc.jsq
    zero = space.zeros((v, v))
    lifted = [_lift(space, M, v) for M in Q.ops]
    P2 = lifted[0]
    eye = space.arr(np.eye(v, dtype=np.int64))
    J2 = _block2(space, zero, space.mul(eye, d), eye, zero, v)
    B = Q.pairing
    herm_re = _block2(space, B, zero, zero, space.neg(space.mul(B, d)), v)
    herm_im = _block2(space, zero, space.neg(B), B, zero, v)
    # Hermitian symmetry and sesquilinearity in component form, checked
    # once: the pi^(-r) sheets are these times P^(r-1), and P is a
    # lifted op.  With re symmetric and im antisymmetric, X^t re =
    # (re X)^t and X^t im = -(im X)^t for every X, so J on the right
    # (re J = -d im, im J = -re) follows from J on the left, and a lifted
    # op M is equivariant (M^t H = H M) when re M is symmetric and im M
    # antisymmetric.
    require(np.array_equal(herm_re, herm_re.T)
            and np.array_equal(herm_im, space.neg(herm_im.T)),
            "Hermitian form is not (anti)symmetric")
    require(np.array_equal(space.matmul(J2.T, herm_re), space.mul(herm_im, d))
            and np.array_equal(space.matmul(J2.T, herm_im), herm_re),
            "Hermitian form is not sesquilinear in j")
    for M in lifted:
        ReM, ImM = space.matmul(herm_re, M), space.matmul(herm_im, M)
        require(np.array_equal(ReM, ReM.T)
                and np.array_equal(ImM, space.neg(ImM.T)),
                "Hermitian form is not equivariant")
    require(space.rank(np.concatenate([herm_re, herm_im])) == 2 * v,
            "Hermitian form is not perfect")
    return HermQuotient(v, space, P2, J2, lifted + [J2], herm_re, herm_im, desc,
                        Q)


def _hermitian_slices(QE):
    """Q's slices carried to Q_E: one or two per factor g of T, by
    whether j^2 is a square r(T)^2 modulo g."""
    Q, space, v = QE.base, QE.space, QE.v
    J2 = QE.J_op
    slices = []
    for g, (cuts, powers) in zip(Q.factors, Q.slices):
        cuts = [_lift(space, C, v) for C in cuts]
        basis = [_lift(space, M, v) for M in powers]
        r = sqrt_mod(QE.desc.jsq, g, space.k)
        if r is None:
            slices.append((cuts, basis + [space.matmul(J2, M) for M in basis]))
        else:
            R = _lift(space, _poly_apply(space, r, Q.T_op), v)
            slices += [(cuts + [space.sub(J2, R)], basis),
                       (cuts + [space.add(J2, R)], basis)]
    return slices


def selfdual_submodules(QE):
    """Canonical bases of all self-dual stable subspaces of Q_E.

    Self-dual means stable and isotropic of dimension exactly v.  The
    subspace walk runs over the whole of Q_E, unfactored, with the
    slices of Q_E and the one stored form re = re_1, so it keeps
    isotropic nodes only.

    One form is enough.  The sheet re_r is re_1 P^(r-1), so re_r(x, y) =
    re_1(x, P^(r-1) y), and im_r(x, y) = -re_r(x, J y)/d (from
    re(x, J y) = d (B(xr, yi) - B(xi, yr))).  The walk's nodes S are
    stable under P and J, so a w with P w in S that is re_1-orthogonal
    to S is orthogonal to S under all 2v sheets, and a node isotropic
    under re_1 is isotropic under all of them: the candidates and the
    kept nodes are the stable isotropic ones of the whole form.  Its
    line prefilter loses nothing either: for such a w, re_r(w, w) =
    re_1(w, P^(r-1) w) = 0 for r >= 2 since P^(r-1) w lies in S, and
    im(w, w) = 0 since im is alternating.
    """
    nodes = walk(QE.space, QE.dim, QE.P_op, QE.ops[1:], QE.slices,
                 form=QE.herm_re, top=QE.v)
    return [S for S in nodes if S.dim == QE.v]


def count_selfdual(Q):
    """#N: self-dual stable lattices between R(O_E) and its dual.

    Q is the order quotient and N the product of its blocks' counts.  A
    block where d is a square modulo its factor g (every split block,
    inert blocks of even degree, and the empty Q) counts the pairs
    (A, A') of its stable submodules with dim A + dim A' = v_g and
    basis(A) B basis(A')^t = 0 (the module docstring has the argument),
    with one product per A against the stacked bases of dimension
    v_g - dim A.  Every A must find exactly one partner, its torsion
    dual; a walk that lost a node raises InvariantViolation.  Only the
    other blocks are doubled to Q_g + j Q_g and walked, each under its
    own work budget."""
    N = 1
    for B in Q.blocks:
        if not B.factors or sqrt_mod(Q.desc.jsq, B.factors[0],
                                     B.space.k) is not None:
            N *= _orthogonal_pairs(B)
        else:
            QE = build_hermitian_quotient(None, Q.desc, None, fq=B)
            N *= len(selfdual_submodules(QE))
    return N


def _orthogonal_pairs(B):
    """Pairs (A, A') of B's stable submodules, orthogonal under its
    sheet with complementary dimensions; each A must have one."""
    space, v = B.space, B.v
    stacks = {}
    for S in B.submodules:
        stacks.setdefault(S.dim, []).append(S.basis_matrix())
    stacks = {dim: np.array(bases) for dim, bases in stacks.items()}
    for A in B.submodules:
        partners = stacks.get(v - A.dim, space.zeros((0, v - A.dim, v)))
        AB = space.matmul(A.basis_matrix(), B.pairing)
        found = int((~space.matmul(partners, AB.T).any(axis=(1, 2))).sum())
        require(found == 1, f"a stable submodule of dimension {A.dim} "
                f"has {found} orthogonal partners, not one")
    return len(B.submodules)


def lattice_counts(Q):
    """(m, N) of a quotient: the stable counts of Q and the self-dual
    count of its double Q_E, both factored over the blocks of Q, which
    read one stable walk per block (only the blocks where j^2 is not a
    square are doubled)."""
    return enumerate_stable_submodules(Q), count_selfdual(Q)


def split_factor_check(Q, QE):
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
    for S in stable_submodules(Q):
        eb = EchelonBasis(space, 2 * v)
        for s in S.basis_matrix():
            eb.insert(np.concatenate([s, s]))
        for u in torsion_dual(Q, S).basis_matrix():
            eb.insert(np.concatenate([u, space.neg(u)]))
        require(eb.dim == v, "split image of a stable S is not of dimension v")
        expected.add(eb.key())
    actual = {S.key() for S in selfdual_submodules(QE)}
    return expected == actual
