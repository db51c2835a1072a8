"""Dense linear algebra over the residue field k = F_q.

Vectors and matrices are numpy int64 arrays of element indices into a
GFTable.  For prime q index arithmetic is ordinary modular arithmetic and
everything vectorizes directly; for prime powers the table mirrors np_add
and np_mul are applied by fancy indexing, with matrix products looping
over the (small) inner dimension.
"""

from bisect import bisect_left
from itertools import combinations

import numpy as np


class KSpace:

    def __init__(self, k):
        self.k = k
        self.q = k.q
        self.p = k.p
        self.prime = k.m == 1

    def arr(self, data):
        return np.asarray(data, dtype=np.int64)

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.int64)

    # -- elementwise -------------------------------------------------

    def add(self, a, b):
        if self.prime:
            return (a + b) % self.p
        return self.k.np_add[a, b]

    def sub(self, a, b):
        if self.prime:
            return (a - b) % self.p
        return self.k.np_sub[a, b]

    def neg(self, a):
        if self.prime:
            return (-a) % self.p
        return self.k.np_neg[a]

    def mul(self, a, b):
        if self.prime:
            return (a * b) % self.p
        return self.k.np_mul[a, b]

    # -- products ----------------------------------------------------

    def matmul(self, A, B):
        """A @ B where A is (..., K) and B is (K, M) or batched (..., K, M),
        both int64 arrays.

        Entries stay below q < 512 (field_desc's bound), so the prime
        path cannot overflow int64.
        """
        if self.prime:
            out = A @ B
            out %= self.p
            return out
        K = A.shape[-1]
        if B.ndim == 2:
            out = self.zeros(A.shape[:-1] + (B.shape[1],))
            for t in range(K):
                out = self.add(out, self.mul(A[..., t:t + 1], B[t][None, :]))
            return out
        if A.ndim != B.ndim:
            raise ValueError(f"batched matmul needs equal ranks, got "
                             f"{A.ndim} and {B.ndim}")
        out = self.zeros(A.shape[:-1] + (B.shape[-1],))
        for t in range(K):
            out = self.add(out, self.mul(A[..., t:t + 1],
                                         B[..., t, :][..., None, :]))
        return out

    def mat_vec(self, M, v):
        if self.prime:
            out = M @ v
            out %= self.p
            return out
        return self.matmul(M, v[:, None])[:, 0]

    def dots(self, A, B):
        """Row-wise dot products: out[i] = sum_t A[i, t] B[i, t]."""
        if self.prime:
            return np.einsum("ij,ij->i", A, B) % self.p
        prod = self.k.np_mul[A, B]
        out = self.zeros(len(prod))
        for t in range(prod.shape[1]):
            out = self.add(out, prod[:, t])
        return out

    # -- elimination ---------------------------------------------------

    def rref(self, A):
        """Reduced row echelon form; returns (R, pivot_columns)."""
        R = np.array(A, dtype=np.int64)
        rows, cols = R.shape
        inv = self.k.inv
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = R[r:, c].nonzero()[0]
            if not nz.size:
                continue
            i = r + int(nz[0])
            if i != r:
                R[[r, i]] = R[[i, r]]
            s = inv[int(R[r, c])]
            col = R[:, c].copy()
            col[r] = 0
            if self.prime:
                R[r] *= s
                R[r] %= self.p
                # clear column c in every other row at once
                R -= col[:, None] * R[r]
                R %= self.p
            else:
                R[r] = self.mul(R[r], s)
                hit = np.nonzero(col)[0]
                if hit.size:
                    R[hit] = self.sub(R[hit],
                                      self.mul(col[hit, None], R[r][None, :]))
            pivots.append(c)
            r += 1
        return R[:r], pivots

    def rank(self, A):
        return len(self.rref(A)[1])

    def right_nullspace(self, A):
        """Rows spanning {x : A x = 0}."""
        A = np.asarray(A, dtype=np.int64)
        return self.rref_nullspace(*self.rref(A), A.shape[1])

    def rref_nullspace(self, R, pivots, cols):
        """Rows spanning {x : R x = 0} for R in reduced echelon form with
        the given pivot columns: one row per free column c, e_c minus
        column c of R at the pivots."""
        free = [c for c in range(cols) if c not in pivots]
        out = self.zeros((len(free), cols))
        out[np.arange(len(free)), free] = 1
        out[:, pivots] = self.neg(R[:, free].T)
        return out


class EchelonBasis:
    """Incrementally maintained RREF basis of a subspace of k^n.

    The fully reduced form makes ``key()`` a canonical identifier of the
    subspace, usable for deduplication.
    """

    def __init__(self, space, n):
        self.space = space
        self.n = n
        self.rows = []     # each a length-n int64 vector, leading entry 1
        self.pivots = []   # increasing, rows[i] has its leading 1 at pivots[i]

    def copy(self):
        # rows are replaced, never written in place, so copies share them
        c = EchelonBasis(self.space, self.n)
        c.rows = list(self.rows)
        c.pivots = list(self.pivots)
        return c

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        sp = self.space
        v = np.array(v, dtype=np.int64)
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if c:
                if sp.prime:
                    v -= row * c
                    v %= sp.p
                else:
                    v = sp.sub(v, sp.mul(row, c))
        return v

    def contains(self, v):
        return not self.reduce(v).any()

    def insert(self, v):
        """Add v to the span; returns False if it was already inside."""
        sp = self.space
        v = self.reduce(v)
        nz = v.nonzero()[0]
        if not nz.size:
            return False
        p = int(nz[0])
        s = sp.k.inv[int(v[p])]
        rows = self.rows
        if sp.prime:
            v *= s
            v %= sp.p
        else:
            v = sp.mul(v, s)
        # clear column p in the existing rows to keep full reduction
        for i, row in enumerate(rows):
            c = row[p]
            if c:
                rows[i] = ((row - v * c) % sp.p if sp.prime
                           else sp.sub(row, sp.mul(v, c)))
        at = bisect_left(self.pivots, p)
        self.pivots.insert(at, p)
        rows.insert(at, v)
        return True

    def basis_matrix(self):
        if not self.rows:
            return self.space.zeros((0, self.n))
        return np.array(self.rows)

    def key(self):
        # the bytes of the stacked int64 rows: full-width entries, since
        # a narrower cast would merge distinct subspaces once q exceeds
        # its range
        return b"".join(map(np.ndarray.tobytes, self.rows))


def gaussian_binomial(n, d, q):
    num, den = 1, 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


RREF_BATCH = 2048


def _rref_cells(n, piv, row=0, col=0):
    """The free cells (row, column) of a reduced echelon basis of k^n with
    pivot columns piv, shifted by row and col: right of each row's pivot
    and outside every pivot column."""
    return [(row + r, col + c) for r, p in enumerate(piv) for c in range(n)
            if c > p and c not in piv]


def _filled_bases(space, shape, piv, free):
    """Every (rows, cols) matrix with 1 at column piv[r] of each row r, any
    entry at the cells free and 0 elsewhere, in batches of at most
    RREF_BATCH."""
    q = space.q
    total = q ** len(free)
    for start in range(0, total, RREF_BATCH):
        cnt = min(RREF_BATCH, total - start)
        idx = np.arange(start, start + cnt, dtype=np.int64)
        W = space.zeros((cnt,) + shape)
        for r, c in enumerate(piv):
            W[:, r, c] = 1
        for t, (r, c) in enumerate(free):
            W[:, r, c] = (idx // q ** t) % q
        yield W


def iter_rref_bases(space, n, d, symbols=1):
    """All d-dimensional subspaces of K^n, one RREF basis each, in batches.

    K is k when symbols is 1.  With symbols = s each entry is s symbols
    over k, and a row is laid out as s blocks of n: symbol t of entry c
    sits at column t n + c.  For s = 2 that is F_(q^2) = k + j k with a
    row w = wr + j wi stored as (wr | wi); the enumeration never
    multiplies, so it needs no table of K.  Yields (W, pivots) with W of
    shape (batch, d, s n), batch at most RREF_BATCH.  Every subspace has
    exactly one reduced echelon basis, so the enumeration is
    duplicate-free.
    """
    for piv in combinations(range(n), d):
        free = [cell for t in range(symbols)
                for cell in _rref_cells(n, piv, col=t * n)]
        for W in _filled_bases(space, (d, symbols * n), piv, free):
            yield W, piv


def iter_sum_bases(space, n):
    """All subspaces A + A' of k^n + k^n, A in the first summand and A' in
    the second, with dim A + dim A' = n, in batches.

    Their bases are block diagonal, the RREF basis of A above that of A',
    so each is the subspace's own RREF basis with pivots piv(A) followed
    by n + piv(A').  Yields (W, pivots) with W of shape (batch, n, 2n);
    candidates of one pivot pair share batches of up to RREF_BATCH.
    """
    for a in range(n + 1):
        for pa in combinations(range(n), a):
            for pb in combinations(range(n), n - a):
                piv = pa + tuple(n + c for c in pb)
                free = _rref_cells(n, pa) + _rref_cells(n, pb, a, n)
                for W in _filled_bases(space, (n, 2 * n), piv, free):
                    yield W, piv


def batch_stable_mask(space, W, piv, M):
    """Which RREF bases W (batch, d, n) span subspaces stable under M.

    Row vectors transform by M transpose; membership is tested by reading
    pivot coordinates, which is valid exactly because W is fully reduced.
    The pivot columns of W are the identity, so the image's pivot
    columns always equal its own coordinates and only the free columns
    are compared.
    """
    if W.shape[1] == 0:
        return np.ones(W.shape[0], dtype=bool)
    piv = list(piv)
    free = [c for c in range(W.shape[2]) if c not in piv]
    A = space.matmul(W, M.T)
    recon = space.matmul(A[:, :, piv], W[:, :, free])
    return (A[:, :, free] == recon).all(axis=(1, 2))


def batch_form_vanishes(space, W, H):
    """Which bases W (batch, d, n) span subspaces with W H W^T = 0."""
    if W.shape[1] == 0:
        return np.ones(W.shape[0], dtype=bool)
    G = space.matmul(space.matmul(W, H), W.transpose(0, 2, 1))
    return (G == 0).all(axis=(1, 2))
