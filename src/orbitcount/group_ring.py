"""Group-version order: the theta-fixed ring with t invertible.

Here P_a must have unit a_n, so t is invertible in O_E[t]/P_a, and
theta acts by sigma on coefficients combined with t -> t^(-1).  The
ideal (P_a) is theta-stable exactly when a_{n-i} = a_n sigma(a_i) for
all i, which forces Nm(a_n) = 1.  The fixed ring is cut out by the
projector (1 + theta)/2, whose Smith normal form hands over an
O_F-basis with unit elementary divisors.  The built order has the
shape of the Lie order, with s as T, so all counting reuses the
quotient pipeline verbatim.  The transport back to the
twisted Lie algebra picks a generator s, takes its multiplication
characteristic coefficients c_i, and returns a_i~ = j^i c_i with
b_m~ = j^m b'(s^m); correctness is enforced on the spot by a Gram
congruence between the transported pair and the group order.
"""

import random

from .errors import (GeneratorNotFound, GroupConstraintViolated,
                     NotStronglyRegular, require)
from .hermitian import lattice_counts
from .invariants import (InvariantPair, char_poly_disc, regular_val,
                         twisted_moments)
from .linalg import (char_coeffs, mat_det, mat_identity, mat_mul,
                     mat_transpose, smith_normal_form)
from .local_field import EElem, TruncSeries, imaginary_unit, j_power
from .order_lattices import OrderData, build_quotient


class GroupOrderData(OrderData):
    """Fixed ring of theta, in the shape of OrderData.

    In the w-basis of the fixed ring, G[i][r] = b'(w_i w_r) and T is the
    multiplication matrix of the residual generator s, so
    build_quotient serves this order too.  gen_poly is s as a
    polynomial in t and gen_powers the matrix whose columns are the
    w-coordinates of 1, s, .., s^(n-1).  N is the working precision
    the order was built at.
    """

    __slots__ = ("ab", "gen_poly", "gen_powers", "N")

    def __init__(self, n, ab, gen_poly, T, gen_powers, G, val_delta, desc,
                 N):
        super().__init__(n, T, G, val_delta, desc)
        self.ab = ab
        self.gen_poly = gen_poly
        self.gen_powers = gen_powers
        self.N = N


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


def _fixed_coords(poly, U, desc, N):
    """w-coordinates of a theta-fixed element given as a polynomial in t.

    U is the left factor of the projector's Smith form; its last n rows
    vanish on the fixed ring, which is checked."""
    n = len(U) // 2
    vec = [c.truncated(N) for c in _vec_of(poly, desc, n)]
    sz = TruncSeries.zero(desc.k, N)
    y = [sum((U[i][r] * vec[r] for r in range(2 * n)), sz)
         for i in range(2 * n)]
    require(not any(y[i].coeffs for i in range(n, 2 * n)),
            "element has coordinates off the fixed ring")
    return y[:n]


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
    ab.check_integrality()
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

    if regular_val(char_poly_disc(ab), ab, "disc(P_a)") is None:
        raise NotStronglyRegular("disc(P_a) is 0")

    # taus[l] = t^(-l), l < n
    tinv = _tinv_poly(ab)
    taus = [[one] + [EElem.zero(desc)] * (n - 1)]
    for _ in range(n - 1):
        taus.append(_poly_mul_mod(taus[-1], tinv, ab))
    # b compatible with theta: sigma(b_l) = b'(t^(-l)) for l < n suffices
    for l in range(n):
        if not ab.b[l].sigma().agrees_with(_bprime(taus[l], ab)):
            raise GroupConstraintViolated(
                f"b incompatible with theta: sigma(b_{l}) != b'(t^(-{l}))")

    # theta matrix on the 2n real coordinates (t^l ; j t^l)
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
    require(all(sq[i][r].agrees_with(ident[i][r])
                for i in range(2 * n) for r in range(2 * n)),
            "theta is not an involution")

    # projector (1 + theta)/2; its image is the fixed ring
    inv2 = k.inv[2]
    proj = [[(Theta[i][r] + ident[i][r]).scaled(inv2) for r in range(2 * n)]
            for i in range(2 * n)]
    U, Uinv, V, dexps = smith_normal_form(proj, N, allow_zero_block=True)
    if len(dexps) != n or any(dexps):
        raise GroupConstraintViolated(
            f"fixed ring is not free of rank {n} with unit divisors: {dexps}")
    # the first n columns of Uinv: a basis w of the fixed ring in the
    # 2n real coordinates (t^l ; j t^l)
    basis_polys = [_poly_of([Uinv[i][r] for i in range(2 * n)], desc, n)
                   for r in range(n)]
    for w in basis_polys:
        tw = _theta_poly(w, taus, ab)
        require(all(c1.agrees_with(c2) for c1, c2 in zip(w, tw)),
                "a fixed-ring basis element is not fixed by theta")

    # each product w_i w_r once for i <= r, the ring being commutative
    # and its series arithmetic exact: b' of it is G[i][r] = G[r][i], and
    # its w-coordinates are column r of mult_ops[i] and column i of
    # mult_ops[r]
    G = [[None] * n for _ in range(n)]
    coords = [[None] * n for _ in range(n)]
    for i in range(n):
        for r in range(i, n):
            prod = _poly_mul_mod(basis_polys[i], basis_polys[r], ab)
            val = _bprime(prod, ab)
            require(val.im.is_zero(), "Gram entry of the fixed ring is not real")
            G[i][r] = G[r][i] = val.re
            coords[i][r] = coords[r][i] = _fixed_coords(prod, U, desc, N)
    mult_ops = [[[coords[i][r][l] for r in range(n)] for l in range(n)]
                for i in range(n)]
    require(all(G[i][r].agrees_with(G[r][i])
                for i in range(n) for r in range(i)),
            "Gram matrix of the fixed ring is not symmetric")
    # with G symmetric, M^t G = (G M)^t, so M is self-adjoint exactly
    # when G M is symmetric
    for M in mult_ops:
        GM = mat_mul(G, M, sz)
        require(all(GM[i][r].agrees_with(GM[r][i])
                    for i in range(n) for r in range(i)),
                "multiplication is not self-adjoint for the Gram pairing")
    val_delta = regular_val(mat_det(G, sz, so), ab,
                            "Gram determinant of the fixed ring")

    gen_poly, T, gen_powers = _find_generator(ab, basis_polys, mult_ops,
                                              taus, U, N)
    return GroupOrderData(n, ab, gen_poly, T, gen_powers, G, val_delta, desc,
                          N)


def _theta_poly(poly, taus, ab):
    out = [EElem.zero(ab.desc)] * ab.n
    for l, c in enumerate(poly):
        sc = c.sigma()
        for r in range(ab.n):
            out[r] = out[r] + sc * taus[l][r]
    return out


def _find_generator(ab, basis_polys, mult_ops, taus, U, N):
    """Element s whose powers span the fixed ring residually.

    Tries the theta-average of jt, then basis elements, then two-term
    combinations with small coefficients, then seeded random vectors.
    A candidate is its w-coordinate vector c: M_s = sum_i c_i mult_ops[i],
    and the powers of s are M_s^m applied to the coordinates of 1.  The
    products behind mult_ops were checked to lie in the fixed ring when
    they were built, so a candidate multiplies nothing in E[t]/P_a.
    Returns (s as a polynomial, multiplication matrix of s, coords of
    powers matrix).
    """
    desc = ab.desc
    k = desc.k
    n = ab.n
    sz = TruncSeries.zero(k, N)
    so = TruncSeries.one(k, N)
    unit = _fixed_coords([EElem.one(desc)], U, desc, N)

    def powers_if_generator(M_s):
        # columns: w-coordinates of 1, s, ..., s^(n-1)
        cols = [unit]
        for _ in range(n - 1):
            cols.append([sum((M_s[i][r] * cols[-1][r] for r in range(n)), sz)
                         for i in range(n)])
        C = [[cols[m][i] for m in range(n)] for i in range(n)]
        return C if mat_det(C, sz, so).val() == 0 else None

    if n >= 2:
        # theta-average of jt: (jt - j t^(-1))/2
        jt = [EElem.zero(desc), imaginary_unit(desc)] + [EElem.zero(desc)] * (n - 2)
        tj = _theta_poly(jt, taus, ab)
        avg = [(a + b).scaled(k.inv[2]) for a, b in zip(jt, tj)]
        y = _fixed_coords(avg, U, desc, N)
        M_s = [[sum((y[r] * mult_ops[r][i][l] for r in range(n)), sz)
                for l in range(n)] for i in range(n)]
        C = powers_if_generator(M_s)
        if C is not None:
            return avg, M_s, C
    coefs = [[int(r == i) for r in range(n)] for i in range(n)]
    for i in range(n):
        for r in range(i + 1, n):
            for c in range(1, min(k.q, 3)):
                coefs.append([1 if x == i else c if x == r else 0
                              for x in range(n)])
    rng = random.Random(20240801)
    coefs += [[rng.randrange(k.q) for _ in range(n)] for _ in range(64)]
    for coef in coefs:
        M_s = [[sum((mult_ops[r][i][l].scaled(c)
                     for r, c in enumerate(coef) if c), sz)
                for l in range(n)] for i in range(n)]
        C = powers_if_generator(M_s)
        if C is not None:
            s_poly = [EElem.zero(desc)] * n
            for r, c in enumerate(coef):
                if c:
                    s_poly = [x + y.scaled(c)
                              for x, y in zip(s_poly, basis_polys[r])]
            return s_poly, M_s, C
    raise GeneratorNotFound(
        "no residual generator found within the attempt cap")


def group_counts(order, N):
    """(m, selfdual count, quotient) by the shared quotient pipeline."""
    # R = O_F[s], so stability under s is stability under R
    Q = build_quotient(order, N)
    m, Ncount = lattice_counts(Q)
    return m, Ncount, Q


def lie_transport(order):
    """Invariants (a~, b~) of a twisted-space element matching the group pair.

    With s a residual generator and c its multiplication characteristic
    coefficients, a_i~ = j^i c_i and b_m~ = j^m b'(s^m).  The identity
    P_a~(j s) = j^n P_c(s) = 0 makes jt~ -> s the module identification;
    the resulting Gram congruence is checked before returning.
    """
    ab = order.ab
    desc = order.desc
    k = desc.k
    n = order.n
    N = order.N
    s_poly, M_s, C = order.gen_poly, order.T, order.gen_powers

    one = EElem.one(desc)
    c = char_coeffs(M_s, TruncSeries.zero(k), TruncSeries.one(k))
    a_t = [j_power(desc, i, c[i - 1]) for i in range(1, n + 1)]
    j = imaginary_unit(desc)
    jp = [one]
    for _ in range(n - 1):
        jp.append(jp[-1] * j)
    power = [one] + [EElem.zero(desc)] * (n - 1)
    b_t = []
    for m in range(n):
        b_t.append(jp[m] * _bprime(power, ab))
        power = _poly_mul_mod(power, s_poly, ab)
    out = InvariantPair(a_t, b_t, desc).validate()

    # Gram congruence: the u-basis of the transported pair maps to
    # (d s)^m, whose w-coordinates are d^m times the generator powers,
    # and its Gram matrix is (r_(i+l)) of the twisted moments.
    r = twisted_moments(out, 2 * n - 1)
    sz = TruncSeries.zero(k, N)
    D = [[C[i][m].scaled(k.pow(desc.jsq, m)) for m in range(n)] for i in range(n)]
    lhs = mat_mul(mat_transpose(D), mat_mul(order.G, D, sz), sz)
    require(all(lhs[i][l].agrees_with(r[i + l])
                for i in range(n) for l in range(n)),
            "transported Gram matrix is not congruent to the group order's")
    return out
