"""Group-version order: the theta-fixed ring with t invertible.

Here P_a must have unit a_n, so t is invertible in O_E[t]/P_a, and
theta acts by sigma on coefficients combined with t -> t^(-1).  The
ideal (P_a) is theta-stable exactly when a_{n-i} = a_n sigma(a_i) for
all i, which forces Nm(a_n) = 1; the proportionality unit
(-1)^n sigma(a_n) is recorded on the built order.  The fixed ring is
cut out by the projector (1 + theta)/2, whose Smith normal form hands
over an O_F-basis with unit elementary divisors, and all counting
reuses the quotient pipeline verbatim.  The transport back to the
twisted Lie algebra picks a generator s, takes its multiplication
characteristic coefficients c_i, and returns a_i~ = j^i c_i with
b_m~ = j^m b'(s^m); correctness is enforced on the spot by a Gram
congruence between the transported pair and the group order.
"""

import random

from .errors import (GeneratorNotFound, GroupConstraintViolated, Indeterminate,
                     NotStronglyRegular, SchemaError)
from .invariants import InvariantPair, char_poly_disc, moment_sequence, _vanishes
from .linalg import (char_coeffs, mat_det, mat_identity, mat_mul,
                     mat_transpose, smith_normal_form)
from .local_field import EElem, TruncSeries, imaginary_unit


class GroupOrderData:
    """Fixed ring of theta with its Gram and multiplication matrices.

    fixed_basis columns are 2n real coordinates in the ambient basis
    (t^l ; j t^l) of O_E[t]/P_a.  mult_ops[i] is multiplication by
    basis element w_i written in the w-basis; G[i][r] = b'(w_i w_r).
    """

    __slots__ = ("n", "ab", "fixed_basis", "mult_ops", "T_gen", "G",
                 "val_delta", "val_disc", "theta_unit", "desc", "_U", "_N")

    def __init__(self, n, ab, fixed_basis, mult_ops, T_gen, G,
                 val_delta, val_disc, theta_unit, desc, U, N):
        self.n = n
        self.ab = ab
        self.fixed_basis = fixed_basis
        self.mult_ops = mult_ops
        self.T_gen = T_gen
        self.G = G
        self.val_delta = val_delta
        self.val_disc = val_disc
        self.theta_unit = theta_unit
        self.desc = desc
        self._U = U
        self._N = N


def _poly_reduce(poly, ab):
    """Reduce an EElem coefficient list modulo P_a, in place."""
    n = ab.n
    while len(poly) > n:
        top = len(poly) - 1
        c = poly.pop()
        for i in range(1, n + 1):
            term = c * ab.a[i - 1]
            if i % 2 == 1:
                poly[top - i] = poly[top - i] + term
            else:
                poly[top - i] = poly[top - i] - term
    return poly


def _poly_mul_mod(p, q, ab):
    zero = EElem.zero(ab.desc)
    out = [zero] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for r, y in enumerate(q):
            out[i + r] = out[i + r] + x * y
    return _poly_reduce(out, ab)


def _tinv_poly(ab):
    """Coefficients of t^(-1) = (-1)^(n+1) a_n^(-1) (t^(n-1) - a_1 t^(n-2) + ...)."""
    n = ab.n
    an_inv = ab.a[n - 1].inv()
    coeffs = [EElem.zero(ab.desc)] * n
    coeffs[n - 1] = an_inv
    for i in range(1, n):
        c = an_inv * ab.a[i - 1]
        coeffs[n - 1 - i] = -c if i % 2 == 1 else c
    if n % 2 == 0:
        coeffs = [-c for c in coeffs]
    return coeffs


def _bprime(poly, ab):
    """b'(x) for a reduced polynomial x = sum poly[l] t^l."""
    acc = EElem.zero(ab.desc)
    for l, c in enumerate(poly):
        acc = acc + c * ab.b[l]
    return acc


def _vec_of(poly, desc, n):
    """Real 2n-coordinate vector (re parts ; im parts) of a poly."""
    out = []
    for l in range(n):
        out.append(poly[l].re if l < len(poly) else TruncSeries.zero(desc.k))
    for l in range(n):
        out.append(poly[l].im if l < len(poly) else TruncSeries.zero(desc.k))
    return out


def _poly_of(vec, desc, n):
    return [EElem(desc, vec[l], vec[n + l]) for l in range(n)]


def build_group_order(ab, N):
    """GroupOrderData from invariants with invertible t.

    Checks, in order: integrality, a_n a unit, theta-stability of P_a
    (including Nm(a_n) = 1), compatibility of b with theta, strong
    regularity of disc(P_a) and of the Gram determinant.  The working
    precision N bounds every series computation.
    """
    n = ab.n
    desc = ab.desc
    k = desc.k
    for name, arr, offset in (("a", ab.a, 1), ("b", ab.b, 0)):
        for idx, x in enumerate(arr):
            if not x.is_integral():
                raise SchemaError(f"{name}[{idx + offset}]",
                                  "integrality: valuation is negative")
    an = ab.a[n - 1]
    if an.val() != 0:
        raise GroupConstraintViolated("a_n must be a unit for t to be invertible")
    # a_{n-i} = a_n sigma(a_i); i = n gives Nm(a_n) = 1
    for i in range(1, n):
        lhs = ab.a[n - i - 1]
        rhs = an * ab.a[i - 1].sigma()
        if not lhs.agrees_with(rhs):
            raise GroupConstraintViolated(
                f"theta-stability fails at a_{n - i}: expected a_n sigma(a_{i})")
    one = EElem.one(desc)
    if not (an * an.sigma()).agrees_with(one):
        raise GroupConstraintViolated("Nm(a_n) must be 1")
    theta_unit = an.sigma() if n % 2 == 0 else -an.sigma()

    disc = char_poly_disc(ab)
    val_disc = disc.val()
    if val_disc is None:
        raise NotStronglyRegular("disc(P_a) vanishes at working precision")

    tinv = _tinv_poly(ab)
    # b compatible with theta: sigma(b_l) = b'(t^(-l)) for l < n suffices
    power = [one] + [EElem.zero(desc)] * (n - 1)
    for l in range(n):
        if not ab.b[l].sigma().agrees_with(_bprime(power, ab)):
            raise GroupConstraintViolated(
                f"b incompatible with theta: sigma(b_{l}) != b'(t^(-{l}))")
        power = _poly_mul_mod(power, tinv, ab)

    # theta matrix on the 2n real coordinates (t^l ; j t^l)
    taus = [[one] + [EElem.zero(desc)] * (n - 1)]
    for _ in range(n - 1):
        taus.append(_poly_mul_mod(taus[-1], tinv, ab))
    Theta = [[TruncSeries.zero(k, N) for _ in range(2 * n)] for _ in range(2 * n)]
    for l in range(n):
        tau = [c.truncated(N) for c in taus[l]]
        for r in range(n):
            Theta[r][l] = tau[r].re
            Theta[n + r][l] = tau[r].im
            # theta(j t^l) = -j tau_l = -d im - j re
            Theta[r][n + l] = -tau[r].im.scaled(desc.jsq)
            Theta[n + r][n + l] = -tau[r].re
    sz = TruncSeries.zero(k, N)
    so = TruncSeries.one(k, N)
    sq = mat_mul(Theta, Theta, sz)
    ident = mat_identity(2 * n, sz, so)
    for i in range(2 * n):
        for r in range(2 * n):
            assert sq[i][r].agrees_with(ident[i][r])

    # projector (1 + theta)/2; its image is the fixed ring
    inv2 = k.inv[2]
    proj = [[(Theta[i][r] + ident[i][r]).scaled(inv2) for r in range(2 * n)]
            for i in range(2 * n)]
    U, Uinv, V, dexps = smith_normal_form(proj, N, allow_zero_block=True)
    if len(dexps) != n or any(dexps):
        raise GroupConstraintViolated(
            f"fixed ring is not free of rank {n} with unit divisors: {dexps}")
    fixed_basis = [[Uinv[i][r] for r in range(n)] for i in range(2 * n)]

    def fixed_coords(vec):
        y = [sum((U[i][r] * vec[r] for r in range(2 * n)), sz) for i in range(2 * n)]
        for i in range(n, 2 * n):
            assert len(y[i].coeffs) == 0
        return y[:n]

    basis_polys = [_poly_of([fixed_basis[i][r] for i in range(2 * n)], desc, n)
                   for r in range(n)]
    for w in basis_polys:
        # membership: theta fixes each basis element
        tw = _theta_poly(w, taus, ab)
        for c1, c2 in zip(w, tw):
            assert c1.agrees_with(c2)

    G = []
    mult_ops = []
    for i in range(n):
        row = []
        for r in range(n):
            prod = _poly_mul_mod(basis_polys[i], basis_polys[r], ab)
            val = _bprime(prod, ab)
            assert _vanishes(val.im)
            row.append(val.re)
        G.append(row)
    for i in range(n):
        cols = []
        for r in range(n):
            prod = _poly_mul_mod(basis_polys[i], basis_polys[r], ab)
            cols.append(fixed_coords([c.truncated(N) for c in _vec_of(prod, desc, n)]))
        mult_ops.append([[cols[r][i2] for r in range(n)] for i2 in range(n)])
    for i in range(n):
        for r in range(n):
            assert G[i][r].agrees_with(G[r][i])
    for M in mult_ops:
        GM = mat_mul(G, M, sz)
        MtG = mat_mul(mat_transpose(M), G, sz)
        for i in range(n):
            for r in range(n):
                assert GM[i][r].agrees_with(MtG[i][r])
    detG = mat_det(G, sz, so)
    val_delta = detG.val()
    if val_delta is None:
        if detG.is_zero():
            raise NotStronglyRegular("Gram determinant of the fixed ring vanishes")
        raise Indeterminate("Gram determinant vanishes at working precision",
                            needed=2 * N)

    order = GroupOrderData(n, ab, fixed_basis, mult_ops, None, G,
                           val_delta, val_disc, theta_unit, desc, U, N)
    order.T_gen = _find_generator(order, basis_polys, taus)[1]
    return order


def _theta_poly(poly, taus, ab):
    out = [EElem.zero(ab.desc)] * ab.n
    for l, c in enumerate(poly):
        sc = c.sigma()
        for r in range(ab.n):
            out[r] = out[r] + sc * taus[l][r]
    return out


def _find_generator(order, basis_polys, taus):
    """Element s whose powers span the fixed ring residually.

    Tries the theta-average of jt, then basis elements, then two-term
    combinations with small coefficients, then seeded random vectors.
    Returns (coords of powers matrix, multiplication matrix of s,
    s as a polynomial).
    """
    ab = order.ab
    desc = order.desc
    k = desc.k
    n = order.n
    N = order._N
    sz = TruncSeries.zero(k, N)
    j = imaginary_unit(desc)

    def fixed_coords(vec):
        y = [sum((order._U[i][r] * vec[r] for r in range(2 * n)), sz)
             for i in range(2 * n)]
        for i in range(n, 2 * n):
            assert len(y[i].coeffs) == 0
        return y[:n]

    def try_candidate(s_poly):
        # powers 1, s, ..., s^(n-1) expressed in the w-basis
        powers = [[EElem.one(desc)] + [EElem.zero(desc)] * (n - 1)]
        for _ in range(n - 1):
            powers.append(_poly_mul_mod(powers[-1], s_poly, ab))
        C = [[None] * n for _ in range(n)]
        for m, pw in enumerate(powers):
            col = fixed_coords([c.truncated(N) for c in _vec_of(pw, desc, n)])
            for i in range(n):
                C[i][m] = col[i]
        det = mat_det(C, sz, TruncSeries.one(k, N))
        if det.val() != 0:
            return None
        cols = []
        for r in range(n):
            prod = _poly_mul_mod(s_poly, basis_polys[r], ab)
            cols.append(fixed_coords([c.truncated(N) for c in _vec_of(prod, desc, n)]))
        M_s = [[cols[r][i] for r in range(n)] for i in range(n)]
        return C, M_s

    candidates = []
    # theta-average of jt: (jt - j t^(-1))/2
    jt = [EElem.zero(desc), j] + [EElem.zero(desc)] * (n - 2) if n >= 2 else None
    if jt is not None:
        tj = _theta_poly(jt, taus, ab)
        inv2 = k.inv[2]
        avg = [(a + b).scaled(inv2) for a, b in zip(jt, tj)]
        candidates.append(avg)
    candidates.extend(basis_polys)
    small = list(range(min(k.q, 3)))
    for i in range(n):
        for r in range(i + 1, n):
            for c in small[1:]:
                candidates.append([x + y.scaled(c)
                                   for x, y in zip(basis_polys[i], basis_polys[r])])
    rng = random.Random(20240801)
    for _ in range(64):
        coef = [rng.randrange(k.q) for _ in range(n)]
        cand = [EElem.zero(desc)] * n
        for r, c in enumerate(coef):
            if c:
                cand = [x + y.scaled(c) for x, y in zip(cand, basis_polys[r])]
        candidates.append(cand)
    for s_poly in candidates:
        got = try_candidate(s_poly)
        if got is not None:
            return s_poly, got[1], got[0]
    raise GeneratorNotFound(
        "no residual generator found within the attempt cap")


def group_counts(order, N, max_v=None):
    """(m, selfdual count) by the shared quotient pipeline."""
    from .hermitian import build_hermitian_quotient, count_selfdual
    from .order_lattices import (DEFAULT_MAX_V, enumerate_stable_submodules,
                                 quotient_from_gram)
    budget = DEFAULT_MAX_V if max_v is None else max_v
    # R = O_F[s], so stability under s is stability under R
    Q = quotient_from_gram(order.G, [order.T_gen], N, order.val_delta, order.desc)
    m = enumerate_stable_submodules(Q, max_v=budget)
    QE = build_hermitian_quotient(None, order.desc, N, fq=Q)
    Ncount = count_selfdual(QE, max_v=budget)
    return m, Ncount, Q


def lie_transport(order):
    """Invariants (a~, b~) of a twisted-space element matching the group pair.

    With s a residual generator and c its multiplication characteristic
    coefficients, a_i~ = j^i c_i and b_m~ = j^m b'(s^m).  The identity
    P_a~(j s) = j^n P_c(s) = 0 makes jt~ -> s the module identification;
    the resulting Gram congruence is asserted before returning.
    """
    ab = order.ab
    desc = order.desc
    k = desc.k
    n = order.n
    N = order._N
    j = imaginary_unit(desc)

    taus = [[EElem.one(desc)] + [EElem.zero(desc)] * (n - 1)]
    tinv = _tinv_poly(ab)
    for _ in range(n - 1):
        taus.append(_poly_mul_mod(taus[-1], tinv, ab))
    basis_polys = [_poly_of([order.fixed_basis[i][r] for i in range(2 * n)], desc, n)
                   for r in range(n)]
    s_poly, M_s, C = _find_generator(order, basis_polys, taus)

    zero = EElem.zero(desc)
    one = EElem.one(desc)
    c = char_coeffs([[EElem.from_real(desc, e) for e in row] for row in M_s],
                    zero, one)
    jp = [one]
    for _ in range(2 * n):
        jp.append(jp[-1] * j)
    a_t = [jp[i] * c[i - 1] for i in range(1, n + 1)]
    power = [one] + [zero] * (n - 1)
    b_t = []
    for m in range(n):
        b_t.append(jp[m] * _bprime(power, ab))
        power = _poly_mul_mod(power, s_poly, ab)
    out = InvariantPair(a_t, b_t, desc).validate()

    # Gram congruence: the u-basis of the transported pair maps to
    # (d s)^m, whose w-coordinates are d^m times the generator powers.
    s_t = moment_sequence(out, 2 * n - 1)
    sz = TruncSeries.zero(k, N)
    D = [[C[i][m].scaled(k.pow(desc.jsq, m)) for m in range(n)] for i in range(n)]
    lhs = mat_mul(mat_transpose(D), mat_mul(order.G, D, sz), sz)
    for i in range(n):
        for r in range(n):
            val = jp[i + r] * s_t[i + r]
            assert _vanishes(val.im)
            assert lhs[i][r].agrees_with(val.re)
    return out
