"""The order O_F[jt], its dual quotient, and stable-lattice counting.

For strongly regular invariants (a, b) the ring generated over O_F by
jt inside E[t]/P_a is free with basis u_i = (jt)^i, and the pairing
(x, y) -> b'(xy) has a symmetric Gram matrix G over O_F in that basis.
Lattices between the order and its dual correspond to submodules of
the finite quotient Q = dual/order, a module over k[P, T] where P is
multiplication by pi and T by jt.  Everything here is exact: Q is cut
out by a Smith normal form of G, operators are transported through
the same change of basis, and the counting walk enumerates canonical
echelon forms, never sampling.  The same walk, given the Hermitian
form, finds the self-dual lattices on the O_E side of the blocks where
j^2 is not a square; on the others hermitian pairs the stable walk's
nodes, which each block keeps (submodules).  Both walks step
by simple extensions, one line over a residue field k[T]/(g) per
irreducible factor g of T's minimal polynomial; the quotient builds
those slices from T with fqpoly's factoring where a walk reads them.

The ring R = O_F[t]/P_a is complete and semilocal, so it is the
product of its localizations R_g, one per factor g, and Q splits with
it: Q = sum of the blocks Q_g = ker g(T)^v, each stable under every
operator and orthogonal to the others under the torsion pairing.  A
stable S is the sum of its parts S cap Q_g, whose colengths add, so the
colength polynomial m(x) = sum m_i x^i is the product of the blocks'
m_g(x).  The counts walk each block on its own, which costs the sum of
the blocks' lattice sets where one walk over Q costs their product.
The lister stable_submodules still walks Q whole.
"""

import os
from collections import deque
from itertools import product

import numpy as np

from .errors import (BudgetExceeded, InvariantViolation, NotStronglyRegular,
                     PrecisionExhausted, require)
from .fqpoly import irreducible_factors
from .invariants import strong_regularity
from .kspace import EchelonBasis, KSpace
from .linalg import mat_mul, mat_transpose, smith_normal_form
from .local_field import TruncSeries, eta


class OrderData:
    """Multiplication and Gram matrices of the order in the u-basis."""

    __slots__ = ("n", "T", "G", "val_delta", "desc")

    def __init__(self, n, T, G, val_delta, desc):
        self.n = n
        self.T = T
        self.G = G
        self.val_delta = val_delta
        self.desc = desc


def build_order(ab):
    """OrderData for strongly regular integral invariants.

    G_{ir} = r_{i+r} = j^{i+r} b'(t^{i+r}) and T is the matrix of jt:
    ones on the subdiagonal, last column from reducing (jt)^n, which
    puts (-1)^(i+1) alpha_i = (-1)^(i+1) j^i a_i in row n - i.  Both are
    real: validate makes the pair parity-correct, so strong_regularity
    reads it through its real forms and hands over alpha and the r_m it
    computed Delta from.  Sanity is enforced on every build: G symmetric
    and G T = T^t G.  det G = d^(n(n-1)/2) Delta is the identity that
    defines Delta here, so the tests check Delta against its E form.
    """
    ab.validate()
    report = strong_regularity(ab)
    if not report.strongly_regular:
        raise NotStronglyRegular(
            "instance is not strongly regular "
            f"(val disc={report.val_disc}, val Delta={report.val_delta})")
    require(report.moments is not None,
            "a validated pair was not read through its real forms")
    n = ab.n
    k = ab.desc.k
    r = report.moments
    G = [[r[i + l] for l in range(n)] for i in range(n)]
    zero = TruncSeries.zero(k)
    T = [[zero for _ in range(n)] for _ in range(n)]
    for l in range(n - 1):
        T[l + 1][l] = TruncSeries.one(k)
    for i, alpha in enumerate(report.alpha, start=1):
        T[n - i][n - 1] = alpha if i % 2 == 1 else -alpha
    require(all(G[i][l].agrees_with(G[l][i])
                for i in range(n) for l in range(i)),
            "Gram matrix is not symmetric")
    # with G symmetric, T^t G = (G T)^t: term for term the same sums, so
    # G T = T^t G exactly when G T is symmetric
    GT = mat_mul(G, T, zero)
    require(all(GT[i][l].agrees_with(GT[l][i])
                for i in range(n) for l in range(i)),
            "T is not self-adjoint for the Gram pairing")
    return OrderData(n, T, G, report.val_delta, ab.desc)


class FiniteQuotient:
    """Q = dual/order as a k-vector space with operators and pairing.

    ops[0] is always P (multiplication by pi); the remaining entries
    generate the order action, and T_op = ops[1] generates it modulo
    pi.  pairing is the one stored sheet B (v x v) of the torsion form
    <x, y> in F/O_F: B[x][y] is the coefficient of pi^(-1).  The
    coefficient of pi^(-r) is that of pi^(-1) in pi^(r-1) <x, y> =
    <x, P^(r-1) y>, so sheet r is B P^(r-1), r = 1..v, derived where
    needed (form_sheets).  factors are the distinct monic irreducible
    factors g of T's minimal polynomial, slices the walk slices
    ([g(T)], [T^0, .., T^(deg g - 1)]) in the same order, and blocks
    the quotients Q_g (just [Q] with one factor), and submodules a
    block's stable subspaces, from one walk.  All four are built on
    first read, so a quotient that is never walked skips them, and both
    counts read one walk of each block.  With several factors only the
    listers read Q's own slices; a count reads each block's.
    """

    __slots__ = ("v", "space", "P_op", "T_op", "ops", "pairing", "desc",
                 "_factors", "_slices", "_blocks", "_submodules")

    def __init__(self, v, space, P_op, T_op, ops, pairing, desc,
                 factors=None, slices=None):
        self.v = v
        self.space = space
        self.P_op = P_op
        self.T_op = T_op
        self.ops = ops
        self.pairing = pairing
        self.desc = desc
        self._factors = factors
        self._slices = slices
        self._blocks = None
        self._submodules = None

    @property
    def factors(self):
        if self._factors is None:
            self._factors = (irreducible_factors(
                _matrix_min_poly(self.space, self.T_op), self.space.k)
                if self.v else [])
        return self._factors

    @property
    def slices(self):
        if self._slices is None:
            self._slices = [_factor_slice(self.space, g, self.T_op)
                            for g in self.factors]
        return self._slices

    @property
    def blocks(self):
        if self._blocks is None:
            self._blocks = (_primary_blocks(self) if len(self.factors) > 1
                            else [self])
        return self._blocks

    @property
    def submodules(self):
        if self._submodules is None:
            self._submodules = walk(self.space, self.v, self.P_op,
                                    self.ops[1:], self.slices)
        return self._submodules


def quotient_from_gram(G, mults, N, val_delta, desc):
    """Shared construction of O^n / G O^n with transported operators.

    mults are the real n x n matrices of the module generators in the
    basis underlying G (build_quotient passes the order's T: jt for the
    Lie order, the residual generator s for the group order).  The SNF
    U G V = diag(pi^d_i) identifies Q with a sum of O/pi^(d_i); each
    operator M acts on dual coordinates as M^t and is carried through U.
    The torsion pairing comes from the principal parts of U^-t V D^-1;
    only its pi^(-1) sheet B is kept, checked once (symmetric, M^t B =
    B M for every operator M, P included, and of rank v), which covers
    every sheet B P^(r-1).  mults[0] becomes T_op, whose slices the
    walks take their steps in; when it does not generate the ring modulo
    pi the walks raise InvariantViolation.
    """
    if N <= val_delta:
        raise PrecisionExhausted(
            f"precision {N} cannot resolve a quotient of length {val_delta}",
            needed=2 * max(N, val_delta + 1))
    n = len(G)
    k = desc.k
    space = KSpace(k)
    U, Uinv, V, dexps = smith_normal_form(G, N)
    require(sum(dexps) == val_delta, "Smith exponents do not sum to val Delta")
    require(dexps == sorted(dexps), "Smith exponents are out of order")
    v = val_delta
    gens = [(i, e) for i in range(n) for e in range(dexps[i])]
    index = {g: x for x, g in enumerate(gens)}

    # P acts monomial by monomial: pi^f e_j -> pi^(f+1) e_j.
    P_op = space.zeros((v, v))
    for x, (j, f) in enumerate(gens):
        if f + 1 < dexps[j]:
            P_op[index[(j, f + 1)], x] = 1

    zero = TruncSeries.zero(k, N)
    # Q reads S = U M^t U^-1 only where d_i, d_j > 0: the rows and
    # columns from z on, the exponents being sorted
    z = dexps.count(0)
    U_live = U[z:]
    Uinv_live = [row[z:] for row in Uinv]
    live = dexps[z:]
    fq_ops = []
    for M in mults:
        S = mat_mul(mat_mul(U_live, mat_transpose(M), zero), Uinv_live, zero)
        # S_ij carries O/pi^(d_j) into O/pi^(d_i) when val S_ij >= d_i - d_j
        require(all(s.is_zero() or s.shift >= di - dj
                    for row, di in zip(S, live) for s, dj in zip(row, live)),
                "transported operator is not integral")
        op = space.zeros((v, v))
        for x, (i, e) in enumerate(gens):
            for y, (j, f) in enumerate(gens):
                if e - f >= dexps[i] - dexps[j]:
                    op[x, y] = S[i - z][j - z].coeff_at(e - f)
        fq_ops.append(op)

    Pi = mat_mul(mat_transpose(Uinv), V, zero)
    Pi = [[Pi[i][j].shifted(-dexps[j]) for j in range(n)] for i in range(n)]
    require(all(Pi[i][j].agrees_with(Pi[j][i])
                for i in range(n) for j in range(i)),
            "torsion pairing matrix is not symmetric")
    pairing = space.zeros((v, v))
    for x, (i, e) in enumerate(gens):
        for y, (j, f) in enumerate(gens):
            pairing[x, y] = Pi[i][j].coeff_at(-1 - e - f)

    ops = [P_op] + fq_ops
    for a, A in enumerate(ops):
        for B in ops[:a]:
            require(np.array_equal(space.matmul(A, B), space.matmul(B, A)),
                    "module operators do not commute")
    require(np.array_equal(pairing, pairing.T),
            "torsion pairing is not symmetric")
    # with the pairing symmetric, M^t B = (B M)^t
    for M in ops:
        BM = space.matmul(pairing, M)
        require(np.array_equal(BM, BM.T),
                "torsion pairing is not equivariant")
    require(space.rank(pairing) == v, "torsion pairing is not perfect")
    T_op = fq_ops[0] if fq_ops else space.zeros((v, v))
    return FiniteQuotient(v, space, P_op, T_op, ops, pairing, desc)


def build_quotient(order, N):
    return quotient_from_gram(order.G, [order.T], N, order.val_delta, order.desc)


def _work_budget():
    """Cap on the candidate lines of one walk, and on the naive scan's
    candidate count: ORBITAL_BUDGET, else 4,000,000.  The counts walk
    each block of a quotient on its own, so for them it caps each
    block's stable walk and, on a block where j^2 is not a square, the
    walk of its double.  The self-dual count of the other blocks pairs
    the stable walk's nodes, one product per node, and has no cap of
    its own."""
    cap = os.environ.get("ORBITAL_BUDGET")
    return int(cap) if cap else 4_000_000


def walk(space, dim, P, ops, slices=(), form=None, top=None):
    """Stable subspaces of k^dim found upward from 0, in discovery order.

    Each node S is stable under P and ops.  Its candidates are
    K = {w : P w in S, w orthogonal to S under form}, a stable space
    containing S.  slices are pairs (cuts, basis): the slice keeps
    M = {w in K : C w in S for every cut C}, on which basis acts as a
    field F = k^e over M/S (basis[0] the identity), and each F-line of
    M/S, closed under ops, is one new node S + F w of dimension
    S.dim + e.  The closure cannot grow further when basis generates
    the ring that ops generate modulo P; if it does, InvariantViolation
    is raised, so a slice that does not see the whole action fails loud
    instead of undercounting.  With no slices every k-line of K/S is
    closed and may grow by more than one dimension.  The closure leaves
    P out: P commutes with ops and P w lies in S.

    The walk is complete.  A stable S' has a composition series
    0 = S_0 < .. < S_r = S', and S_(i+1)/S_i is simple: P kills it (P is
    nilpotent), and so does one maximal ideal of the commutative ring
    the operators generate, which the slices list one by one as a cut
    g(T), and on the Hermitian side, when j^2 = d is a square r^2 in
    k[T]/g, also J - r(T) or J + r(T).  So S_(i+1) is an F-line over
    S_i in one slice, and the walk reaches S' from 0 step by step.

    form is a bilinear form; when given, only nodes on which it
    vanishes are kept and extended, so a candidate must be orthogonal to
    S and isotropic.  Every subspace of an isotropic space is isotropic,
    so the series above stays inside the walk.  Nodes of dimension top
    (default dim) are leaves; slices that would pass it are skipped and
    unsliced closures that pass it dropped.

    The work is the candidate lines: a step whose M/S has F-dimension c
    has (q^(ec) - 1) / (q^e - 1) of them, known before any is built.
    The walk keeps a running total and raises BudgetExceeded, with that
    total as the estimate, before it builds a step that would take the
    total past _work_budget().
    """
    q = space.k.q
    top = dim if top is None else top
    cap = _work_budget()
    counted = 0
    eye = space.arr(np.eye(dim, dtype=np.int64))
    exact = bool(slices)
    slices = [(cuts, np.array(basis))
              for cuts, basis in slices or [((), [eye])]]
    lines_of = {}
    seed = EchelonBasis(space, dim)
    seen = {seed.key()}
    frontier = deque([seed])
    out = [seed]
    while frontier:
        S = frontier.popleft()
        if S.dim == top:
            continue
        B = S.basis_matrix()
        # ann x = 0 exactly when x lies in S, read off S's reduced basis
        ann = space.rref_nullspace(B, S.pivots, dim)
        rows = [space.matmul(ann, P)]
        if S.dim and form is not None:
            rows.append(space.matmul(B, form))
        K = space.right_nullspace(np.concatenate(rows, axis=0))
        for cuts, basis in slices:
            e = len(basis)
            if S.dim + e > top:
                continue
            M = K
            if cuts:
                Z = np.concatenate([space.matmul(space.matmul(ann, C), K.T)
                                    for C in cuts], axis=0)
                if Z.any():
                    M = space.matmul(space.right_nullspace(Z), K)
            # an F-basis w_1..w_c of M/S, kept as its images under basis
            # (basis[0] is the identity: w itself)
            span = S.copy()
            W = []
            for w in M:
                if not span.insert(w):
                    continue
                W.append(w)
                if e > 1:
                    for x in space.matmul(basis[1:], w[:, None])[:, :, 0]:
                        require(span.insert(x),
                                "slice basis is not a field on the candidates")
                        W.append(x)
            if not W:
                continue
            c = len(W) // e
            counted += (q ** (e * c) - 1) // (q ** e - 1)
            if counted > cap:
                raise BudgetExceeded(
                    f"subspace walk would close {counted} lines, past the "
                    f"budget of {cap}", estimate=counted)
            if (c, e) not in lines_of:
                lines_of[c, e] = space.arr(list(_projective_tuples(c, q, e)))
            lines = space.matmul(lines_of[c, e], np.array(W))
            if form is not None:
                # necessary isotropy of the new line
                lines = lines[space.dots(space.matmul(lines, form),
                                         lines) == 0]
            for w in lines:
                node = S.copy()
                stack = [w]
                while stack:
                    x = stack.pop()
                    if node.insert(x):
                        for A in ops:
                            stack.append(space.mat_vec(A, x))
                if exact:
                    require(node.dim == S.dim + e,
                            "closure of an F-line is not simple: T does "
                            "not generate the ring modulo pi")
                elif node.dim > top:
                    continue
                key = node.key()
                if key in seen:
                    continue
                seen.add(key)
                if form is not None:
                    nb = node.basis_matrix()
                    if space.matmul(space.matmul(nb, form), nb.T).any():
                        continue
                frontier.append(node)
                out.append(node)
    return out


def _projective_tuples(c, q, e=1):
    """Coefficients of the lines of F^c, F = k^e with 1 = (1, 0, .., 0).

    Blocks of e entries; the first nonzero block is 1, so there is one
    tuple per line: (q^(ec) - 1) / (q^e - 1) of them.
    """
    one = (1,) + (0,) * (e - 1)
    for lead in range(c):
        for tail in product(range(q), repeat=(c - lead - 1) * e):
            yield (0,) * (lead * e) + one + tail


# -- slices and blocks: the residue fields of T ----------------------

def _factor_slice(space, g, T):
    """The walk slice ([g(T)], [T^0, .., T^(f-1)]) of a factor g of
    degree f, the cut left out when g(T) = 0.  On ker g(T) the basis
    acts as the field k[T]/(g)."""
    powers = [space.arr(np.eye(len(T), dtype=np.int64))]
    while len(powers) < len(g) - 1:
        powers.append(space.matmul(powers[-1], T))
    cut = _poly_apply(space, g, T)
    return [cut] if cut.any() else [], powers


def _primary_blocks(Q):
    """The blocks Q_g = ker g(T)^v of Q, one per factor g, in Q.factors
    order, each a FiniteQuotient with its restricted operators, its
    restricted pairing sheet and the slice of its own g.

    One change of basis B, the kernels side by side, carries every
    operator to B^-1 A B and the stored sheet H to B^t H B.  The
    operators commute with T, so they keep each kernel, and the kernels
    are orthogonal, so both come out block-diagonal; the check is
    explicit, as is the check that g(T) is nilpotent on Q_g, read off
    the cut of the block's slice, without which the walk on Q_g, given
    g's slice only, would miss the other factors.  A block's sheet r is
    again its B P^(r-1): both factors are restrictions of block-diagonal
    matrices.
    """
    space, v = Q.space, Q.v
    kernels = [space.right_nullspace(
                   _mat_pow(space, _poly_apply(space, g, Q.T_op), v))
               for g in Q.factors]
    B = np.concatenate(kernels, axis=0).T
    R, pivots = space.rref(np.concatenate(
        [B, space.arr(np.eye(v, dtype=np.int64))], axis=1))
    require(B.shape[1] == v and pivots == list(range(v)),
            "the generalized kernels of T do not span Q")
    Binv = R[:, v:]
    spans = []
    for K in kernels:
        start = spans[-1].stop if spans else 0
        spans.append(slice(start, start + len(K)))
    inside = np.zeros((v, v), dtype=bool)
    for s in spans:
        inside[s, s] = True
    ops = [space.matmul(space.matmul(Binv, A), B) for A in Q.ops]
    form = space.matmul(space.matmul(B.T, Q.pairing), B)
    require(not any(M[~inside].any() for M in ops + [form]),
            "module operators or the pairing are not block-diagonal "
            "over the factors of T")
    blocks = []
    for g, s in zip(Q.factors, spans):
        d = s.stop - s.start
        Tg = ops[1][s, s]
        cuts, powers = _factor_slice(space, g, Tg)
        # a cut left out of the slice is g(T_g) = 0, nilpotent already
        require(not cuts or not _mat_pow(space, cuts[0], d).any(),
                "a block of Q sees more than its own factor of T")
        blocks.append(FiniteQuotient(
            d, space, ops[0][s, s], Tg, [M[s, s] for M in ops], form[s, s],
            Q.desc, [g], [(cuts, powers)]))
    return blocks


def _mat_pow(space, M, e):
    out = space.arr(np.eye(len(M), dtype=np.int64))
    while e:
        if e & 1:
            out = space.matmul(out, M)
        M = space.matmul(M, M)
        e >>= 1
    return out


def _matrix_min_poly(space, M):
    """Monic minimal polynomial of M over k, little-endian.

    The powers M^i, each tagged with the unit vector e_i, go into one
    echelon basis; the first power whose matrix part reduces to zero
    leaves the relation sum c_j M^j = 0 in its tag, with c_i = 1.
    """
    dim = len(M)
    width = dim * dim
    span = EchelonBasis(space, width + dim + 1)
    power = space.arr(np.eye(dim, dtype=np.int64))
    for i in range(dim + 1):
        tag = space.zeros(dim + 1)
        tag[i] = 1
        row = span.reduce(np.concatenate([np.ravel(power), tag]))
        if not row[:width].any():
            return [int(c) for c in row[width:width + i + 1]]
        span.insert(row)
        power = space.matmul(power, M)
    raise InvariantViolation("no annihilating polynomial up to the dimension")


def _poly_apply(space, poly, M):
    dim = len(M)
    eye = space.arr(np.eye(dim, dtype=np.int64))
    out = space.zeros((dim, dim))
    for c in reversed(poly):
        out = space.matmul(out, M)
        if c:
            out = space.add(out, space.mul(eye, int(c)))
    return out


def stable_submodules(Q):
    """All submodules of Q stable under Q.ops, as canonical echelon bases.

    One walk over the whole of Q, unfactored: the slow side that the
    factored count is checked against."""
    return walk(Q.space, Q.v, Q.P_op, Q.ops[1:], Q.slices)


def enumerate_stable_submodules(Q):
    """Counts m_i = #{stable S with dim(Q/S) = i}, i = 0..v.

    The polynomial product of the blocks' counts, each block walked on
    its own under its own work budget; the walks are kept on the blocks
    (submodules), where the self-dual count reads them again."""
    m = [1]
    for B in Q.blocks:
        mb = [0] * (B.v + 1)
        for S in B.submodules:
            mb[B.v - S.dim] += 1
        m = _poly_product(m, mb)
    require(m[0] == 1 and m[Q.v] == 1,
            "Q and 0 are not the only extreme nodes")
    return m


def _poly_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def torsion_dual(Q, S):
    """Orthogonal complement of a stable S under the torsion pairing; an
    involution on stable subspaces.

    It is the null space of basis(S) B.  Under sheet r = B P^(r-1),
    x^t B P^(r-1) y = (P^(r-1) x)^t B y, as B P = P^t B, and P^(r-1) x
    lies in S with x, so orthogonality to S under B alone is
    orthogonality under every sheet.
    """
    space = Q.space
    rows = space.right_nullspace(space.matmul(S.basis_matrix(), Q.pairing))
    eb = EchelonBasis(space, Q.v)
    for w in rows:
        eb.insert(w)
    require(eb.dim == Q.v - S.dim, "torsion dual has the wrong dimension")
    return eb


def form_sheets(space, H, P, count):
    """[H, H P, .., H P^(count-1)]: the coefficients of pi^(-1), ..,
    pi^(-count) of a torsion form whose pi^(-1) coefficient is H, P
    being multiplication by pi.  The oracles that test every sheet
    derive them here."""
    out = [H]
    while len(out) < count:
        out.append(space.matmul(out[-1], P))
    return out[:count]


def signed_sum(m, desc):
    """Sum of eta(pi)^i m_i: alternating when inert, plain when split."""
    return sum(eta(i, desc) * c for i, c in enumerate(m))
