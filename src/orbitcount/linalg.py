"""Division-light linear algebra over series rings.

Matrices are lists of rows; entries are TruncSeries or EElem (anything
with +, -, unary -, *; smith_normal_form also reads .val(), .shifted()
and a unit's .inv()).
Characteristic polynomials and determinants use the Berkowitz iteration,
which needs no division at all, so exact inputs give exact outputs.
"""

from .errors import PrecisionExhausted


def mat_identity(n, zero, one):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def vec_dot(u, v, zero):
    acc = zero
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def mat_mul(A, B, zero):
    Bt = mat_transpose(B)
    return [[vec_dot(row, col, zero) for col in Bt] for row in A]


def char_coeffs(A, zero, one):
    """Invariant coefficients a_1..a_n with det(tI - A) = t^n + sum (-1)^i a_i t^(n-i).

    Berkowitz iteration over the leading principal submatrices: each step
    multiplies the previous coefficient vector by a lower-triangular
    Toeplitz matrix whose column is built from the Krylov dots R M^j C.
    """
    n = len(A)
    p = [one]
    for k in range(1, n + 1):
        R = A[k - 1][:k - 1]
        C = [A[i][k - 1] for i in range(k - 1)]
        col = [one, -A[k - 1][k - 1]]
        w = C
        for j in range(2, k + 1):
            if j > 2:
                w = [vec_dot(A[i][:k - 1], w, zero) for i in range(k - 1)]
            col.append(-vec_dot(R, w, zero))
        pn = []
        for i in range(k + 1):
            acc = zero
            for t in range(max(0, i - len(p) + 1), min(i, k) + 1):
                acc = acc + col[t] * p[i - t]
            pn.append(acc)
        p = pn
    return [p[i] if i % 2 == 0 else -p[i] for i in range(1, n + 1)]


def mat_det(A, zero, one):
    if not A:
        return one
    return char_coeffs(A, zero, one)[-1]


def _row_sub(M, i, r, c):
    M[i] = [a - c * b for a, b in zip(M[i], M[r])]


def _col_addmul(M, dst, src, c):
    for row in M:
        row[dst] = row[dst] + c * row[src]


def smith_normal_form(M, N, allow_zero_block=False):
    """Diagonalize an integral series matrix: U M V = diag(pi^d_i) mod pi^N.

    Pivot selection takes the entry of least valuation, ties broken by
    lowest row then lowest column; the pivot row is scaled so the diagonal
    entry becomes an exact power of pi.  Over a discrete valuation ring the
    least-valuation choice already yields d_0 <= d_1 <= ... without a
    divisibility fix-up pass.

    Returns (U, Uinv, V, dexps).  When the residual block is zero at the
    working precision the remaining exponents are unreadable: that raises
    PrecisionExhausted by default, but with allow_zero_block=True the
    routine stops early and returns the exponents found so far
    (len(dexps) < n), which is the right behaviour for projector matrices
    whose kernel block is genuinely zero.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("smith_normal_form needs a square matrix")
    k = M[0][0].k
    from .local_field import TruncSeries
    zero = TruncSeries.zero(k, N)
    one = TruncSeries.one(k, N)
    work = [[e.truncated(N) for e in row] for row in M]
    U = mat_identity(n, zero, one)
    Uinv = mat_identity(n, zero, one)
    V = mat_identity(n, zero, one)
    dexps = []
    for r in range(n):
        best = None
        for i in range(r, n):
            for j in range(r, n):
                v = work[i][j].val()
                if v is not None and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            if allow_zero_block:
                break
            raise PrecisionExhausted(
                f"elementary divisor block vanishes at precision {N}")
        dv, i0, j0 = best
        if i0 != r:
            work[r], work[i0] = work[i0], work[r]
            U[r], U[i0] = U[i0], U[r]
            for row in Uinv:
                row[r], row[i0] = row[i0], row[r]
        if j0 != r:
            for row in work:
                row[r], row[j0] = row[j0], row[r]
            for row in V:
                row[r], row[j0] = row[j0], row[r]
        # pivot = pi^dv u with u a unit: one inverse serves the
        # eliminations (pi^(-dv) u^(-1)) and the row scaling (u^(-1))
        u = work[r][r].shifted(-dv)
        uinv = u.inv()
        pinv = uinv.shifted(-dv)
        for i in range(r + 1, n):
            c = work[i][r] * pinv
            if not c.is_zero():
                _row_sub(work, i, r, c)
                _row_sub(U, i, r, c)
                _col_addmul(Uinv, r, i, c)
        for j in range(r + 1, n):
            c = work[r][j] * pinv
            if not c.is_zero():
                for row in work:
                    row[j] = row[j] - c * row[r]
                for row in V:
                    row[j] = row[j] - c * row[r]
        work[r] = [e * uinv for e in work[r]]
        U[r] = [e * uinv for e in U[r]]
        for row in Uinv:
            row[r] = row[r] * u
        dexps.append(dv)
    return U, Uinv, V, dexps
