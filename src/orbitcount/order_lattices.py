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
sheets, finds the self-dual lattices on the O_E side.
"""

import os
from collections import deque

import numpy as np

from .errors import BudgetExceeded, NotStronglyRegular, PrecisionExhausted
from .invariants import moment_sequence, strong_regularity, _vanishes
from .kspace import EchelonBasis, KSpace, gaussian_binomial
from .linalg import mat_det, mat_mul, mat_transpose, smith_normal_form
from .local_field import EElem, TruncSeries, imaginary_unit

DEFAULT_MAX_V = 12


class OrderData:
    """Multiplication and Gram matrices of the order in the u-basis."""

    __slots__ = ("n", "T", "G", "val_delta", "val_disc", "desc")

    def __init__(self, n, T, G, val_delta, val_disc, desc):
        self.n = n
        self.T = T
        self.G = G
        self.val_delta = val_delta
        self.val_disc = val_disc
        self.desc = desc


def _real_part(x):
    # Entries built from parity-correct invariants are real by
    # construction; a surviving imaginary digit means a bug upstream.
    assert _vanishes(x.im)
    return x.re


def build_order(ab):
    """OrderData for strongly regular integral invariants.

    G_{ir} = j^{i+r} b'(t^{i+r}) and T is the matrix of jt: ones on the
    subdiagonal, last column from reducing (jt)^n.  Both are real.
    Sanity is enforced on every build: G symmetric, G T = T^t G, and
    det G equals Delta up to the exact unit (j^2)^{n(n-1)/2}.
    """
    ab.validate()
    report = strong_regularity(ab)
    if not report.strongly_regular:
        raise NotStronglyRegular(
            "instance is not strongly regular "
            f"(val disc={report.val_disc}, val Delta={report.val_delta})")
    n = ab.n
    desc = ab.desc
    k = desc.k
    j = imaginary_unit(desc)
    jp = [EElem.one(desc)]
    for _ in range(2 * n):
        jp.append(jp[-1] * j)
    s = moment_sequence(ab, 2 * n - 1)
    G = [[_real_part(jp[i + r] * s[i + r]) for r in range(n)] for i in range(n)]
    zero = TruncSeries.zero(k)
    T = [[zero for _ in range(n)] for _ in range(n)]
    for r in range(n - 1):
        T[r + 1][r] = TruncSeries.one(k)
    for i in range(1, n + 1):
        coeff = jp[i] * ab.a[i - 1]
        if i % 2 == 0:
            coeff = -coeff
        T[n - i][n - 1] = _real_part(coeff)
    for i in range(n):
        for r in range(n):
            assert G[i][r].agrees_with(G[r][i])
    sz = TruncSeries.zero(k)
    so = TruncSeries.one(k)
    GT = mat_mul(G, T, sz)
    TtG = mat_mul(mat_transpose(T), G, sz)
    for i in range(n):
        for r in range(n):
            assert GT[i][r].agrees_with(TtG[i][r])
    detG = mat_det(G, sz, so)
    delta = _real_part(report.delta)
    dpow = k.pow(desc.jsq, n * (n - 1) // 2)
    assert detG.agrees_with(delta.scaled(dpow))
    return OrderData(n, T, G, report.val_delta, report.val_disc, desc)


class FiniteQuotient:
    """Q = dual/order as a k-vector space with operators and pairing.

    ops[0] is always P (multiplication by pi); the remaining entries
    generate the order action.  pairing[r-1][x][y] is the coefficient
    of pi^(-r) in the torsion form <x, y> in F/O_F, for r = 1..v.
    """

    __slots__ = ("v", "space", "P_op", "T_op", "ops", "pairing",
                 "dexps", "desc")

    def __init__(self, v, space, P_op, T_op, ops, pairing, dexps, desc):
        self.v = v
        self.space = space
        self.P_op = P_op
        self.T_op = T_op
        self.ops = ops
        self.pairing = pairing
        self.dexps = dexps
        self.desc = desc


def quotient_from_gram(G, mults, N, val_delta, desc):
    """Shared construction of O^n / G O^n with transported operators.

    mults are the real n x n matrices of the module generators in the
    basis underlying G (for the order: just T).  The SNF U G V =
    diag(pi^d_i) identifies Q with a sum of O/pi^(d_i); each operator
    M acts on dual coordinates as M^t and is carried through U.  The
    torsion pairing comes from the principal parts of U^-t V D^-1.
    """
    if N <= val_delta:
        raise PrecisionExhausted(
            f"precision {N} cannot resolve a quotient of length {val_delta}",
            needed=2 * max(N, val_delta + 1))
    n = len(G)
    k = desc.k
    space = KSpace(k)
    U, Uinv, V, dexps = smith_normal_form(G, N)
    assert sum(dexps) == val_delta
    assert dexps == sorted(dexps)
    v = val_delta
    gens = [(i, e) for i in range(n) for e in range(dexps[i])]
    index = {g: x for x, g in enumerate(gens)}

    # P acts monomial by monomial: pi^f e_j -> pi^(f+1) e_j.
    P_op = space.zeros((v, v))
    for x, (j, f) in enumerate(gens):
        if f + 1 < dexps[j]:
            P_op[index[(j, f + 1)], x] = 1

    zero = TruncSeries.zero(k, N)
    fq_ops = []
    for M in mults:
        S = mat_mul(mat_mul(U, mat_transpose(M), zero), Uinv, zero)
        op = space.zeros((v, v))
        for x, (i, e) in enumerate(gens):
            for y, (j, f) in enumerate(gens):
                # integrality of the transported action on the cyclic pieces
                val = S[i][j].val()
                assert val is None or val >= dexps[i] - dexps[j]
                if e - f < dexps[i] - dexps[j]:
                    continue
                op[x, y] = S[i][j].coeff_at(e - f)
        fq_ops.append(op)

    Pi = mat_mul(mat_transpose(Uinv), V, zero)
    Pi = [[Pi[i][j].shifted(-dexps[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert Pi[i][j].agrees_with(Pi[j][i])
    pairing = space.zeros((v, v, v))
    for x, (i, e) in enumerate(gens):
        for y, (j, f) in enumerate(gens):
            for r in range(1, v + 1):
                pairing[r - 1, x, y] = Pi[i][j].coeff_at(-r - e - f)

    ops = [P_op] + fq_ops
    for A in ops:
        for B in ops:
            assert np.array_equal(space.matmul(A, B), space.matmul(B, A))
    for r in range(v):
        B = pairing[r]
        assert np.array_equal(B, B.T)
        for M in fq_ops:
            assert np.array_equal(space.matmul(M.T, B), space.matmul(B, M))
        assert np.array_equal(space.matmul(P_op.T, B), space.matmul(B, P_op))
    if v:
        stacked = pairing.reshape(v * v, v)
        assert space.rank(stacked) == v
    T_op = fq_ops[0] if fq_ops else space.zeros((v, v))
    return FiniteQuotient(v, space, P_op, T_op, ops, pairing, dexps, desc)


def build_quotient(order, N):
    return quotient_from_gram(order.G, [order.T], N, order.val_delta, order.desc)


def _node_budget():
    cap = os.environ.get("ORBITAL_BUDGET")
    return int(cap) if cap else 4_000_000


def walk(space, dim, P, ops, slices=(), sheets=(), top=None):
    """Stable subspaces of k^dim found upward from 0, in discovery order.

    For a known stable S the vectors w with P w in S form a linear space
    (it contains S since S is stable); each line of that space modulo S
    is closed under ops and the result enqueued.  Every stable S' is
    found: a maximal stable proper T' < S' admits w in S' \\ T' with
    P w in T' because P is nilpotent, and the closure of T' + k w inside
    S' is stable and strictly larger, hence equal to S'.  The closure
    leaves P out: P commutes with ops and P w lies in S, so P maps the
    closure of S + k w back into S.

    slices are operators g(T), one per irreducible factor g of T's
    minimal polynomial.  A minimal stable extension carries a simple
    module, so it is killed by some g(T); taking the candidates one
    kernel at a time keeps the projective orbits small.  With no slices
    the candidates are not cut.

    sheets are bilinear forms; when given, only nodes on which every
    sheet vanishes are kept and extended, so a candidate line must be
    orthogonal to S and isotropic under each.  Every subspace of an
    isotropic space is isotropic, so this prunes no chain that leads to
    a maximal one.  Nodes of dimension top (default dim) are leaves, and
    closures that pass it are dropped.
    """
    q = space.k.q
    top = dim if top is None else top
    cap = _node_budget()
    eye = space.arr(np.eye(dim, dtype=np.int64))
    seed = EchelonBasis(space, dim)
    seen = {seed.key()}
    frontier = deque([seed])
    out = [seed]
    while frontier:
        S = frontier.popleft()
        if S.dim == top:
            continue
        B = S.basis_matrix()
        ann = space.right_nullspace(B) if S.dim else eye
        base = [space.matmul(ann, P)]
        base += [space.matmul(B, H) for H in sheets] if S.dim else []
        for gT in slices or [None]:
            rows = base if gT is None else base + [space.matmul(ann, gT)]
            cand = space.right_nullspace(np.concatenate(rows, axis=0))
            # echelonize the candidate directions modulo S
            cq = EchelonBasis(space, dim)
            for w in cand:
                w = S.reduce(w)
                if w.any():
                    cq.insert(w)
            if not cq.dim:
                continue
            reps = space.arr(list(_projective_tuples(cq.dim, q)))
            lines = space.matmul(reps, cq.basis_matrix())
            # necessary isotropy of the new line, batched over all sheets
            mask = np.ones(len(lines), dtype=bool)
            for H in sheets:
                mask &= space.dots(space.matmul(lines, H), lines) == 0
            for w in lines[mask]:
                node = S.copy()
                stack = [w]
                while stack:
                    x = stack.pop()
                    if node.insert(np.array(x)):
                        for M in ops:
                            stack.append(space.mat_vec(M, x))
                if node.dim > top:
                    continue
                key = node.key()
                if key in seen:
                    continue
                if len(seen) >= cap:
                    raise BudgetExceeded(
                        f"subspace walk passed {cap} nodes", estimate=2 * cap)
                seen.add(key)
                if _is_isotropic(space, node.basis_matrix(), sheets):
                    frontier.append(node)
                    out.append(node)
    return out


def _is_isotropic(space, W, sheets):
    return not any(space.matmul(space.matmul(W, H), W.T).any() for H in sheets)


def _projective_tuples(c, q):
    """Coefficient tuples with first nonzero entry 1: one per line."""
    for lead in range(c):
        tail = c - lead - 1
        idx = [0] * tail
        while True:
            yield (0,) * lead + (1,) + tuple(idx)
            t = tail - 1
            while t >= 0:
                idx[t] += 1
                if idx[t] < q:
                    break
                idx[t] = 0
                t -= 1
            if t < 0:
                break


def stable_submodules(Q, max_v=DEFAULT_MAX_V):
    """All submodules of Q stable under Q.ops, as canonical echelon bases."""
    v = Q.v
    if v > max_v:
        raise BudgetExceeded(
            f"quotient dimension {v} exceeds the enumeration budget {max_v}",
            estimate=gaussian_binomial(v, v // 2, Q.space.k.q))
    return walk(Q.space, v, Q.P_op, Q.ops[1:])


def enumerate_stable_submodules(Q, max_v=DEFAULT_MAX_V):
    """Counts m_i = #{stable S with dim(Q/S) = i}, i = 0..v."""
    m = [0] * (Q.v + 1)
    for S in stable_submodules(Q, max_v=max_v):
        m[Q.v - S.dim] += 1
    assert m[0] == 1 and m[Q.v] == 1
    return m


def torsion_dual(Q, S):
    """Orthogonal complement under the torsion pairing; an involution."""
    space = Q.space
    v = Q.v
    basis = S.basis_matrix()
    if S.dim == 0:
        rows = space.arr(np.eye(v, dtype=np.int64))
    else:
        # stack <x, .> over every basis x and every principal part
        sheets = [space.matmul(basis, Q.pairing[r]) for r in range(v)]
        rows = space.right_nullspace(np.concatenate(sheets, axis=0))
    eb = EchelonBasis(space, v)
    for w in rows:
        eb.insert(w)
    assert eb.dim == v - S.dim
    return eb


def signed_sum(m, desc):
    """Sum of eta(pi)^i m_i: alternating when inert, plain when split."""
    if desc.is_split:
        return sum(m)
    return sum(c if i % 2 == 0 else -c for i, c in enumerate(m))
