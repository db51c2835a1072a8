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
sheets, finds the self-dual lattices on the O_E side.  Both walks step
by simple extensions, one line over a residue field k[T]/(g) per
irreducible factor g of T's minimal polynomial; the quotient carries
those slices, built once from T, and the small F_q[x] helpers behind
them.
"""

import os
from collections import deque
from itertools import product

import numpy as np

from .errors import (BudgetExceeded, InvariantViolation, NotStronglyRegular,
                     PrecisionExhausted, require)
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
    require(_vanishes(x.im), "Gram or multiplication entry is not real")
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
    require(all(G[i][r].agrees_with(G[r][i])
                for i in range(n) for r in range(n)),
            "Gram matrix is not symmetric")
    sz = TruncSeries.zero(k)
    so = TruncSeries.one(k)
    GT = mat_mul(G, T, sz)
    TtG = mat_mul(mat_transpose(T), G, sz)
    require(all(GT[i][r].agrees_with(TtG[i][r])
                for i in range(n) for r in range(n)),
            "T is not self-adjoint for the Gram pairing")
    detG = mat_det(G, sz, so)
    delta = _real_part(report.delta)
    dpow = k.pow(desc.jsq, n * (n - 1) // 2)
    require(detG.agrees_with(delta.scaled(dpow)),
            "Gram determinant differs from Delta")
    return OrderData(n, T, G, report.val_delta, report.val_disc, desc)


class FiniteQuotient:
    """Q = dual/order as a k-vector space with operators and pairing.

    ops[0] is always P (multiplication by pi); the remaining entries
    generate the order action, and T_op = ops[1] generates it modulo
    pi.  pairing[r-1][x][y] is the coefficient of pi^(-r) in the torsion
    form <x, y> in F/O_F, for r = 1..v.  factors are the distinct monic
    irreducible factors g of T's minimal polynomial and slices the walk
    slices ([g(T)], [T^0, .., T^(deg g - 1)]) in the same order.
    """

    __slots__ = ("v", "space", "P_op", "T_op", "ops", "pairing",
                 "dexps", "desc", "factors", "slices")

    def __init__(self, v, space, P_op, T_op, ops, pairing, dexps, desc,
                 factors, slices):
        self.v = v
        self.space = space
        self.P_op = P_op
        self.T_op = T_op
        self.ops = ops
        self.pairing = pairing
        self.dexps = dexps
        self.desc = desc
        self.factors = factors
        self.slices = slices


def quotient_from_gram(G, mults, N, val_delta, desc):
    """Shared construction of O^n / G O^n with transported operators.

    mults are the real n x n matrices of the module generators in the
    basis underlying G (for the order: just T; for the group order: the
    residual generator).  The SNF U G V = diag(pi^d_i) identifies Q with
    a sum of O/pi^(d_i); each operator M acts on dual coordinates as M^t
    and is carried through U.  The torsion pairing comes from the
    principal parts of U^-t V D^-1.  mults[0] becomes T_op, whose
    slices the walks take their steps in; when it does not generate the
    ring modulo pi the walks raise InvariantViolation.
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
    fq_ops = []
    for M in mults:
        S = mat_mul(mat_mul(U, mat_transpose(M), zero), Uinv, zero)
        op = space.zeros((v, v))
        for x, (i, e) in enumerate(gens):
            for y, (j, f) in enumerate(gens):
                val = S[i][j].val()
                require(val is None or val >= dexps[i] - dexps[j],
                        "transported operator is not integral")
                if e - f < dexps[i] - dexps[j]:
                    continue
                op[x, y] = S[i][j].coeff_at(e - f)
        fq_ops.append(op)

    Pi = mat_mul(mat_transpose(Uinv), V, zero)
    Pi = [[Pi[i][j].shifted(-dexps[j]) for j in range(n)] for i in range(n)]
    require(all(Pi[i][j].agrees_with(Pi[j][i])
                for i in range(n) for j in range(n)),
            "torsion pairing matrix is not symmetric")
    pairing = space.zeros((v, v, v))
    for x, (i, e) in enumerate(gens):
        for y, (j, f) in enumerate(gens):
            for r in range(1, v + 1):
                pairing[r - 1, x, y] = Pi[i][j].coeff_at(-r - e - f)

    ops = [P_op] + fq_ops
    for A in ops:
        for B in ops:
            require(np.array_equal(space.matmul(A, B), space.matmul(B, A)),
                    "module operators do not commute")
    for r in range(v):
        B = pairing[r]
        require(np.array_equal(B, B.T), "torsion pairing is not symmetric")
        for M in ops:
            require(np.array_equal(space.matmul(M.T, B), space.matmul(B, M)),
                    "torsion pairing is not equivariant")
    if v:
        require(space.rank(pairing.reshape(v * v, v)) == v,
                "torsion pairing is not perfect")
    T_op = fq_ops[0] if fq_ops else space.zeros((v, v))
    factors, slices = _residue_slices(space, T_op)
    return FiniteQuotient(v, space, P_op, T_op, ops, pairing, dexps, desc,
                          factors, slices)


def build_quotient(order, N):
    return quotient_from_gram(order.G, [order.T], N, order.val_delta, order.desc)


def _node_budget():
    cap = os.environ.get("ORBITAL_BUDGET")
    return int(cap) if cap else 4_000_000


def walk(space, dim, P, ops, slices=(), sheets=(), top=None):
    """Stable subspaces of k^dim found upward from 0, in discovery order.

    Each node S is stable under P and ops.  Its candidates are
    K = {w : P w in S, w orthogonal to S under every sheet}, a stable
    space containing S.  slices are pairs (cuts, basis): the slice keeps
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

    sheets are bilinear forms; when given, only nodes on which every
    sheet vanishes are kept and extended, so a candidate must be
    orthogonal to S and isotropic under each.  Every subspace of an
    isotropic space is isotropic, so the series above stays inside the
    walk.  Nodes of dimension top (default dim) are leaves; slices that
    would pass it are skipped and unsliced closures that pass it dropped.
    """
    q = space.k.q
    top = dim if top is None else top
    cap = _node_budget()
    eye = space.arr(np.eye(dim, dtype=np.int64))
    exact = bool(slices)
    slices = [(cuts, np.stack(basis))
              for cuts, basis in slices or [((), [eye])]]
    # the sheets side by side, so one product applies all of them
    Hcat = np.concatenate(sheets, axis=1) if len(sheets) else None
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
        if S.dim and Hcat is not None:
            rows.append(_sheet_rows(space, B, Hcat))
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
            span = S.copy()
            W = []
            for w in M:
                if span.contains(w):
                    continue
                images = space.matmul(basis, w[:, None])[:, :, 0]
                for x in images:
                    require(span.insert(x),
                            "slice basis is not a field on the candidates")
                W.extend(images)
            if not W:
                continue
            c = len(W) // e
            if (c, e) not in lines_of:
                lines_of[c, e] = space.arr(list(_projective_tuples(c, q, e)))
            lines = space.matmul(lines_of[c, e], np.stack(W))
            if Hcat is not None:
                # necessary isotropy of the new line, under every sheet
                vals = space.dots(_sheet_rows(space, lines, Hcat),
                                  np.tile(lines, (len(sheets), 1)))
                lines = lines[~vals.reshape(len(sheets), -1).any(axis=0)]
            for w in lines:
                node = S.copy()
                stack = [w]
                while stack:
                    x = stack.pop()
                    if node.insert(np.array(x)):
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
                if len(seen) >= cap:
                    raise BudgetExceeded(
                        f"subspace walk passed {cap} nodes", estimate=2 * cap)
                seen.add(key)
                if Hcat is not None:
                    nb = node.basis_matrix()
                    if space.matmul(_sheet_rows(space, nb, Hcat), nb.T).any():
                        continue
                frontier.append(node)
                out.append(node)
    return out


def _sheet_rows(space, X, Hcat):
    """The blocks X H_1, .., X H_s stacked, for Hcat = [H_1 | .. | H_s]."""
    dim = Hcat.shape[0]
    XH = space.matmul(X, Hcat).reshape(len(X), -1, dim)
    return XH.transpose(1, 0, 2).reshape(-1, dim)


def _projective_tuples(c, q, e=1):
    """Coefficients of the lines of F^c, F = k^e with 1 = (1, 0, .., 0).

    Blocks of e entries; the first nonzero block is 1, so there is one
    tuple per line: (q^(ec) - 1) / (q^e - 1) of them.
    """
    one = (1,) + (0,) * (e - 1)
    for lead in range(c):
        for tail in product(range(q), repeat=(c - lead - 1) * e):
            yield (0,) * (lead * e) + one + tail


# -- slices: the residue fields of T ---------------------------------

def _residue_slices(space, T):
    """(factors, slices) of T: for each distinct monic irreducible factor
    g of its minimal polynomial, of degree f, the walk slice
    ([g(T)], [T^0, .., T^(f-1)]), with the cut left out when g(T) = 0.
    On ker g(T) the basis acts as the field k[T]/(g)."""
    if not len(T):
        return [], []
    factors = _distinct_irreducible_factors(space.k,
                                            _matrix_min_poly(space, T))
    powers = [space.arr(np.eye(len(T), dtype=np.int64))]
    while len(powers) < max(len(g) for g in factors) - 1:
        powers.append(space.matmul(powers[-1], T))
    cuts = [_poly_apply(space, g, T) for g in factors]
    slices = [([C] if C.any() else [], powers[:len(g) - 1])
              for g, C in zip(factors, cuts)]
    return factors, slices


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


def _poly_pow_mod(base, e, h, k):
    """base^e in F_q[s]/(h), h monic; polynomials as little-endian lists."""
    n = len(h) - 1

    def mul(u, v):
        out = [0] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    out[i + j] = k.add[out[i + j]][k.mul[a][b]]
        for i in range(len(out) - 1, n - 1, -1):
            c = out[i]
            if c:
                out[i] = 0
                for j in range(n):
                    out[i - n + j] = k.sub[out[i - n + j]][k.mul[c][h[j]]]
        out = out[:n]
        return out + [0] * (n - len(out))

    acc = [1] + [0] * (n - 1)
    while e:
        if e & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        e >>= 1
    return acc


def _sqrt_mod(d, g, k):
    """r with r^2 = d modulo g, for d in k^* and g monic irreducible of
    degree f, or None when d is not a square in k[x]/(g).

    A square of k has its root in k.  A non-square of k is a square in
    k[x]/(g) exactly when f is even; then for y in k[x]/(g),
    w = y^((q^f - 1) / (2 (q - 1))) squares to the norm of y, which lies
    in k and is a non-square when y is one, so r is w times a root of
    d over that norm.
    """
    q = k.q
    f = len(g) - 1
    roots = {k.mul[s][s]: s for s in range(q)}
    if d in roots:
        return [roots[d]] + [0] * (f - 1)
    if f % 2:
        return None
    half = (q ** f - 1) // (q - 1) // 2
    for idx in range(q, q ** f):
        y = [idx // q ** a % q for a in range(f)]
        w = _poly_pow_mod(y, half, g, k)
        norm = _poly_pow_mod(w, 2, g, k)
        require(not any(norm[1:]), "y^((q^f-1)/2(q-1)) does not square into k")
        if norm[0] not in roots:
            s = roots[k.mul[d][k.inv[norm[0]]]]
            r = [k.mul[s][c] for c in w]
            require(_poly_pow_mod(r, 2, g, k) == [d] + [0] * (f - 1),
                    "square root of d is wrong")
            return r
    raise InvariantViolation("k[x]/(g) of even degree has no non-square")


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


def _distinct_irreducible_factors(k, poly):
    """Distinct monic irreducible factors, by smallest-divisor trial division."""
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


def stable_submodules(Q, max_v=DEFAULT_MAX_V):
    """All submodules of Q stable under Q.ops, as canonical echelon bases."""
    v = Q.v
    if v > max_v:
        raise BudgetExceeded(
            f"quotient dimension {v} exceeds the enumeration budget {max_v}",
            estimate=gaussian_binomial(v, v // 2, Q.space.k.q))
    return walk(Q.space, v, Q.P_op, Q.ops[1:], Q.slices)


def enumerate_stable_submodules(Q, max_v=DEFAULT_MAX_V):
    """Counts m_i = #{stable S with dim(Q/S) = i}, i = 0..v."""
    m = [0] * (Q.v + 1)
    for S in stable_submodules(Q, max_v=max_v):
        m[Q.v - S.dim] += 1
    require(m[0] == 1 and m[Q.v] == 1,
            "Q and 0 are not the only extreme nodes")
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
    require(eb.dim == v - S.dim, "torsion dual has the wrong dimension")
    return eb


def signed_sum(m, desc):
    """Sum of eta(pi)^i m_i: alternating when inert, plain when split."""
    if desc.is_split:
        return sum(m)
    return sum(c if i % 2 == 0 else -c for i, c in enumerate(m))
