"""Conjugation invariants of matrices over the quadratic etale extension.

A matrix A of rank n acts on V = E^n with a distinguished last basis
vector e0 and last-coordinate projection e0*.  The invariants are the
characteristic coefficients a_i together with the moments
b_i = e0*(A^i e0); a pair (a, b) is all the counting machinery ever
sees, so this module also hosts validation (parity and integrality),
the two discriminant-like quantities Delta and disc(P_a), and the
membership predicates for the twisted symmetric spaces.

Delta and disc(P_a) are the same kind of object: the determinant of
the n x n Hankel matrix (f(t^(i+j))) of a linear form f on E[t]/P_a,
f = b' for Delta and f = Tr for disc(P_a) = det (Tr(t^(i+j))), and
one routine, _hankel, computes both.  Both sequences f(t^m) obey P_a's
recurrence, and both determinants are division-free, so exact inputs
give exact values in every odd characteristic, p <= n included.

Real forms.  When every a_i and b_m has its parity, the twists
alpha_i = j^i a_i, r_m = j^m b'(t^m) and j^m Tr(t^m) lie in F, obey
r_m = sum (-1)^(i+1) alpha_i r_(m-i) and Newton's identities over
alpha, and give Delta = d^(-n(n-1)/2) det (r_(i+j)), d = j^2, and disc
the same way.  Such a pair is computed in F, one series product per
product where E takes four; strong_regularity hands alpha and r_m on
to build_order, whose Gram matrix is (r_(i+l)).  Every other pair (a
group pair, or one whose parity fails) is computed over E, which also
serves the tests as the reference for the real forms.
"""

from .errors import (NotStronglyRegular, PrecisionExhausted, SchemaError,
                     require)
from .linalg import char_coeffs, mat_det
from .local_field import EElem, TruncSeries


class MatrixE:
    """Square matrix over E with the marked vector e0 = last basis vector."""

    __slots__ = ("n", "entries", "desc")

    def __init__(self, entries, desc):
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise ValueError("entries must form a nonempty square matrix")
        if any(e.desc != desc for row in entries for e in row):
            raise ValueError("every entry must lie in the matrix's field")
        self.n = n
        self.entries = [list(row) for row in entries]
        self.desc = desc

    def apply(self, vec):
        zero = EElem.zero(self.desc)
        return [
            sum((e * x for e, x in zip(row, vec)), zero)
            for row in self.entries
        ]

    def apply_covector(self, cov):
        zero = EElem.zero(self.desc)
        return [
            sum((c * self.entries[i][j] for i, c in enumerate(cov)), zero)
            for j in range(self.n)
        ]

    def e0(self):
        one = EElem.one(self.desc)
        zero = EElem.zero(self.desc)
        return [zero] * (self.n - 1) + [one]

    def is_integral(self):
        return all(e.is_integral() for row in self.entries for e in row)


class InvariantPair:
    """The pair (a_1..a_n, b_0..b_{n-1}) with its parity constraints.

    Both arrays live in O_E, and the i-th entry must satisfy
    sigma(x) = (-1)^i x, where a is indexed from 1 and b from 0.
    Everything downstream (orders, lattice counts, the group variant)
    consumes only this pair, never the matrix it came from.
    """

    __slots__ = ("n", "a", "b", "desc")

    def __init__(self, a, b, desc):
        if len(a) != len(b) or not a:
            raise ValueError("a and b must have equal positive length")
        self.n = len(a)
        self.a = list(a)
        self.b = list(b)
        self.desc = desc

    def validate(self):
        """Raise SchemaError naming the offending entry, or return self.

        Parity violations are only reported on digits actually known at
        the working precision; integrality requires valuation >= 0 in
        both components.
        """
        for name, arr, offset in (("a", self.a, 1), ("b", self.b, 0)):
            for idx, x in enumerate(arr):
                # subscripts follow the math convention: a_1..a_n, b_0..b_(n-1)
                sub = idx + offset
                if not x.is_integral():
                    raise SchemaError(f"{name}[{sub}]", "integrality: valuation is negative")
                bad = x.re if sub % 2 == 1 else x.im
                if not bad.is_zero():
                    raise SchemaError(
                        f"{name}[{sub}]",
                        f"parity: sigma must act by (-1)^{sub}")
        return self

    def check_integrality(self):
        """validate without parity, which group pairs do not satisfy."""
        for name, arr, offset in (("a", self.a, 1), ("b", self.b, 0)):
            for idx, x in enumerate(arr):
                if not x.is_integral():
                    raise SchemaError(f"{name}[{idx + offset}]",
                                      "integrality: valuation is negative")
        return self

    def prec(self):
        """Shared working precision: None when every entry is exact."""
        best = None
        for x in self.a + self.b:
            p = x.prec
            if p is not None and (best is None or p < best):
                best = p
        return best

    def truncated(self, N):
        return InvariantPair(
            [x.truncated(N) for x in self.a],
            [x.truncated(N) for x in self.b],
            self.desc)


class RegularityReport:
    """Valuations of disc(P_a) and Delta.

    For a parity-correct pair, alpha holds the real forms j^i a_i and
    moments the twisted moments r_m = j^m b'(t^m), m = 0..2n-2; both
    are None for pairs read over E.
    """

    __slots__ = ("val_disc", "val_delta", "strongly_regular", "alpha",
                 "moments")

    def __init__(self, val_disc, val_delta, alpha, moments):
        self.val_disc = val_disc
        self.val_delta = val_delta
        self.strongly_regular = val_disc is not None and val_delta is not None
        self.alpha = alpha
        self.moments = moments

    def __repr__(self):
        return (f"RegularityReport(val_disc={self.val_disc}, val_delta={self.val_delta}, "
                f"strongly_regular={self.strongly_regular})")


def char_poly_coeffs(A):
    """Signed characteristic coefficients a_1..a_n of the matrix A.

    det(t*id - A) = t^n + sum_i (-1)^i a_i t^(n-i).  Division-free, so
    exact entries give exact coefficients in every odd characteristic.
    """
    zero = EElem.zero(A.desc)
    one = EElem.one(A.desc)
    return char_coeffs(A.entries, zero, one)


def moment_vector(A):
    """Moments b_i = e0*(A^i e0) for i = 0..n-1; b_0 = 1 always."""
    vec = A.e0()
    out = []
    for _ in range(A.n):
        out.append(vec[A.n - 1])
        vec = A.apply(vec)
    return out


def invariants_of(A):
    return InvariantPair(char_poly_coeffs(A), moment_vector(A), A.desc)


def real_forms(ab):
    """The real forms (alpha, beta) of a parity-correct pair, or None.

    When sigma(a_i) = (-1)^i a_i and sigma(b_m) = (-1)^m b_m, the twisted
    values alpha_i = j^i a_i (i = 1..n) and beta_m = j^m b_m (m < n) lie
    in F: each is d^ceil(i/2) times the component that does not vanish,
    d = j^2, cut to the element's precision (the least of its two
    components').  None when some entry has a known digit in the
    component its parity says must vanish; such pairs keep the E path.
    """
    k, d = ab.desc.k, ab.desc.jsq
    forms = []
    for arr, offset in ((ab.a, 1), (ab.b, 0)):
        out = []
        for idx, x in enumerate(arr):
            i = idx + offset
            keep, drop = (x.im, x.re) if i % 2 else (x.re, x.im)
            if not drop.is_zero():
                return None
            y = keep.scaled(k.pow(d, (i + 1) // 2))
            out.append(y if x.prec is None else y.truncated(x.prec))
        forms.append(out)
    return tuple(forms)


def _recurrence(coeffs, s, count, zero):
    """Extend s_0..s_(n-1) to s_0..s_(count-1) by P_a's recurrence.

    Any sequence m -> f(t^m), f linear on E[t]/P_a, satisfies
    s_m = sum_{i=1..n} (-1)^(i+1) a_i s_(m-i) for m >= n, because t^n
    reduces to that combination of lower powers modulo P_a.  Multiplying
    by j^m turns it into the same recurrence for the twisted values
    j^m s_m over alpha_i = j^i a_i, so coeffs is either a (over E) or
    alpha (over F), and zero is that ring's zero.
    """
    n = len(coeffs)
    s = list(s[:count])
    for m in range(len(s), count):
        acc = zero
        for i in range(1, n + 1):
            term = coeffs[i - 1] * s[m - i]
            acc = acc + term if i % 2 == 1 else acc - term
        s.append(acc)
    return s


def twisted_moments(ab, count):
    """r_m = j^m b'(t^m) in F for m = 0..count-1, from the real forms of
    a parity-correct pair (InvariantViolation for any other pair)."""
    forms = real_forms(ab)
    require(forms is not None, "twisted moments need a parity-correct pair")
    return _recurrence(forms[0], forms[1], count, TruncSeries.zero(ab.desc.k))


def _power_sums(coeffs, count, zero, one, p):
    """Power sums p_m = Tr(t^m) of the roots of P_a, m = 0..count-1, or
    their twists j^m p_m when coeffs is alpha.

    p_0 = n, and Newton's identities give p_m for 0 < m < n:
    p_m = sum_{i<m} (-1)^(i-1) a_i p_(m-i) + (-1)^(m-1) m a_m; from
    m = n on, P_a's recurrence.  Both are homogeneous in the weight
    that j^m carries, so they hold for the twists over alpha as well.
    Both have integer coefficients, so no division is needed, whatever
    the characteristic p.
    """
    n = len(coeffs)
    out = [one.scaled(n % p)]
    for m in range(1, min(n, count)):
        acc = coeffs[m - 1].scaled(m % p)
        if m % 2 == 0:
            acc = -acc
        for i in range(1, m):
            term = coeffs[i - 1] * out[m - i]
            acc = acc + term if i % 2 == 1 else acc - term
        out.append(acc)
    return _recurrence(coeffs, out, count, zero)


def _twist_scale(n, desc):
    """Column weights d^(-l) under which a Hankel determinant of twists
    r_m = j^m s_m equals det (s_(i+j)).

    (r_(i+l) d^(-l)) = (d^i j^(-i-l) s_(i+l)): the d^i and the j^(-i-l)
    contribute d^(n(n-1)/2) and its inverse to the determinant.  Entry
    for entry, the Berkowitz expansion then weights each inner sum by
    d^l as it does over E for (s_(i+l)), so every intermediate is a unit
    times the E one and the precision tracked is the same.
    """
    k = desc.k
    dinv = k.inv[desc.jsq]
    return [k.pow(dinv, l) for l in range(n)]


def _hankel(ab, forms, traces):
    """(det (s_(i+j))_{0<=i,j<n} in E, s_0..s_(2n-2)), division-free.

    s_m = Tr(t^m) when traces, else b'(t^m).  With forms None, s is read
    over E from (a, b); otherwise s holds the twists j^m s_m in F from
    the real forms (alpha, beta), and the _twist_scale column weights
    make the determinant the one over E.
    """
    desc, n = ab.desc, ab.n
    if forms is None:
        coeffs, start = ab.a, ab.b
        zero, one = EElem.zero(desc), EElem.one(desc)
    else:
        coeffs, start = forms
        zero, one = TruncSeries.zero(desc.k), TruncSeries.one(desc.k)
    if traces:
        s = _power_sums(coeffs, 2 * n - 1, zero, one, desc.p)
    else:
        s = _recurrence(coeffs, start, 2 * n - 1, zero)
    if forms is None:
        return mat_det([[s[i + j] for j in range(n)] for i in range(n)],
                       zero, one), s
    scale = _twist_scale(n, desc)
    det = mat_det([[s[i + j].scaled(scale[j]) for j in range(n)]
                   for i in range(n)], zero, one)
    return EElem.from_real(desc, det), s


def _delta(ab, forms):
    """(Delta, twisted moments r_0..r_(2n-2)), the moments None over E."""
    delta, s = _hankel(ab, forms, False)
    if forms is None:
        # The imaginary component cancels because sigma(s_m) = (-1)^m s_m
        # makes the Hankel matrix Hermitian-symmetric with real
        # determinant; a nonvanishing digit there means corrupted input.
        require(delta.im.is_zero(), "Delta has a nonzero imaginary part")
        return delta, None
    return delta, s


def _disc(ab, forms):
    """disc(P_a) over E, or from alpha when forms are given."""
    if ab.n == 1:
        return EElem.one(ab.desc)
    disc = _hankel(ab, forms, True)[0]
    precs = [x.prec for x in ab.a if x.prec is not None]
    return disc.truncated(min(precs)) if precs else disc


def delta_invariant(ab):
    """Delta = det (b'(t^{i+j}))_{0<=i,j<n}; lands in F.

    A parity-correct pair computes it from its real forms as
    d^(-n(n-1)/2) det (r_(i+j)), r_m = j^m b'(t^m); any other pair over
    E, where a nonvanishing imaginary digit of the result raises
    InvariantViolation.
    """
    return _delta(ab, real_forms(ab))[0]


def v_invariant(A):
    """Valuation of det of the covector matrix (e0* A^i)_{i<n}.

    Raises NotStronglyRegular when the rows are dependent at the
    working precision (exact zero or zero at precision alike).
    """
    zero = EElem.zero(A.desc)
    one = EElem.one(A.desc)
    cov = [zero] * (A.n - 1) + [one]
    rows = []
    for _ in range(A.n):
        rows.append(cov)
        cov = A.apply_covector(cov)
    det = mat_det(rows, zero, one)
    v = det.val()
    if v is None:
        raise NotStronglyRegular(
            "covector rows e0*, e0*A, ... are dependent at working precision")
    return v


def regular_val(x, ab, what):
    """val x for x = disc(P_a) or Delta of ab; None when x is exactly 0.

    A value that vanishes only modulo the working precision is
    inconclusive and raises PrecisionExhausted with a doubled-precision
    hint.
    """
    v = x.val()
    if v is not None:
        return v
    if x.prec is None:
        return None
    cur = ab.prec() or 0
    raise PrecisionExhausted(f"{what} vanishes at working precision",
                             needed=2 * max(cur, 1))


def strong_regularity(ab):
    """Joint regularity report for disc(P_a) and Delta_{a,b}.

    A parity-correct pair is read through its real forms once: Delta,
    disc(P_a) and the twisted moments r_m all come from them, and the
    report keeps alpha and r_0..r_(2n-2) for build_order.  Other pairs
    take the E path and the report carries no forms.  Exact zeros make
    the instance genuinely singular; zeros at the working precision are
    inconclusive and raise PrecisionExhausted (see regular_val).
    """
    forms = real_forms(ab)
    delta, moments = _delta(ab, forms)
    val_disc = regular_val(_disc(ab, forms), ab, "disc(P_a)")
    val_delta = regular_val(delta, ab, "Delta")
    return RegularityReport(val_disc, val_delta, forms[0] if forms else None,
                            moments)


def char_poly_disc(ab):
    """disc(P_a) = det (Tr(t^(i+j)))_{0<=i,j<n}, for the monic P_a.

    With V the Vandermonde matrix of the roots r_1..r_n, V^T V is the
    Hankel matrix of the power sums p_m = sum_k r_k^m = Tr(t^m), so its
    determinant is det(V)^2 = prod_{k<l} (r_k - r_l)^2 = disc(P_a).
    Both sides are polynomials with integer coefficients in a_1..a_n
    (power sums need no division), so the identity holds over
    Z[a_1..a_n] and survives reduction to characteristic p, p <= n
    included, where p_0 = n and the Newton terms m a_m may vanish.
    Delta is the same Hankel determinant over b' in place of Tr.  A
    parity-correct pair computes it from the twists j^m p_m over alpha
    (real_forms), in F; any other pair, a group pair say, over E.

    The value is reported modulo pi^N, N the least precision of the
    a_i; for integral a_i it is known that far, as an integer
    polynomial in them.  This expansion can track further digits where
    another (the Sylvester resultant) would not, so they are dropped:
    whether disc vanishes at the working precision does not depend on
    how the determinant was expanded.
    """
    return _disc(ab, real_forms(ab))
