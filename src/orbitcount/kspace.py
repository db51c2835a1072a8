"""Dense linear algebra over the residue field k = F_q.

Vectors and matrices are numpy int64 arrays of element indices into a
GFTable.  For prime q index arithmetic is ordinary modular arithmetic and
everything vectorizes directly; for prime powers the table mirrors np_add
and np_mul are applied by fancy indexing, with matrix products looping
over the (small) inner dimension.
"""

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

    def inv_el(self, a):
        return self.k.inv[int(a)]

    # -- products ----------------------------------------------------

    def matmul(self, A, B):
        """A @ B where A is (..., K) and B is (K, M) or batched (..., K, M).

        Entries stay below q so the prime path cannot overflow int64.
        """
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if self.prime:
            return (A @ B) % self.p
        K = A.shape[-1]
        if B.ndim == 2:
            out = self.zeros(A.shape[:-1] + (B.shape[1],))
            for t in range(K):
                out = self.add(out, self.mul(A[..., t:t + 1], B[t][None, :]))
            return out
        assert A.ndim == B.ndim
        out = self.zeros(A.shape[:-1] + (B.shape[-1],))
        for t in range(K):
            out = self.add(out, self.mul(A[..., t:t + 1], B[..., t, :][..., None, :]
                                         if A.ndim > 2 else B[..., t, :]))
        return out

    def mat_vec(self, M, v):
        return self.matmul(M, v.reshape(-1, 1)).reshape(-1)

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
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = np.nonzero(R[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                R[[r, i]] = R[[i, r]]
            s = self.inv_el(R[r, c])
            R[r] = self.mul(R[r], s)
            # clear column c in every other row at once
            col = R[:, c].copy()
            col[r] = 0
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
        self.pivots = []   # strictly increasing? no: kept sorted with rows

    def copy(self):
        c = EchelonBasis(self.space, self.n)
        c.rows = [r.copy() for r in self.rows]
        c.pivots = list(self.pivots)
        return c

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        sp = self.space
        v = np.array(v, dtype=np.int64)
        for p, row in zip(self.pivots, self.rows):
            if v[p]:
                v = sp.sub(v, sp.mul(row, v[p]))
        return v

    def contains(self, v):
        return not self.reduce(v).any()

    def insert(self, v):
        """Add v to the span; returns False if it was already inside."""
        sp = self.space
        v = self.reduce(v)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        p = int(nz[0])
        v = sp.mul(v, sp.inv_el(v[p]))
        # clear column p in the existing rows to keep full reduction
        for i, row in enumerate(self.rows):
            if row[p]:
                self.rows[i] = sp.sub(row, sp.mul(v, row[p]))
        at = 0
        while at < len(self.pivots) and self.pivots[at] < p:
            at += 1
        self.pivots.insert(at, p)
        self.rows.insert(at, v)
        return True

    def basis_matrix(self):
        if not self.rows:
            return self.space.zeros((0, self.n))
        return np.stack(self.rows)

    def key(self):
        # full-width entries: a narrower cast would merge distinct
        # subspaces once q exceeds its range
        return self.basis_matrix().astype(np.int64, copy=False).tobytes()


def gaussian_binomial(n, d, q):
    num, den = 1, 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def iter_rref_bases(space, n, d, max_batch=4096):
    """All d-dimensional subspaces of k^n, one RREF basis each, in batches.

    Yields (W, pivots) with W of shape (batch, d, n).  Every subspace has
    exactly one reduced echelon basis, so the enumeration is duplicate-free.
    """
    q = space.q
    if d == 0:
        yield space.zeros((1, 0, n)), ()
        return
    for piv in combinations(range(n), d):
        free = [(r, c) for r in range(d) for c in range(n)
                if c > piv[r] and c not in piv]
        f = len(free)
        total = q ** f
        for start in range(0, total, max_batch):
            cnt = min(max_batch, total - start)
            idx = np.arange(start, start + cnt, dtype=np.int64)
            W = space.zeros((cnt, d, n))
            for r, c in zip(range(d), piv):
                W[:, r, c] = 1
            for t, (r, c) in enumerate(free):
                W[:, r, c] = (idx // q ** t) % q
            yield W, piv


def batch_stable_mask(space, W, piv, M):
    """Which RREF bases W (batch, d, n) span subspaces stable under M.

    Row vectors transform by M transpose; membership is tested by reading
    pivot coordinates, which is valid exactly because W is fully reduced.
    """
    if W.shape[1] == 0:
        return np.ones(W.shape[0], dtype=bool)
    A = space.matmul(W, M.T)
    coords = A[:, :, list(piv)]
    recon = space.matmul(coords, W)
    return (A == recon).all(axis=(1, 2))


def batch_form_vanishes(space, W, H):
    """Which bases W (batch, d, n) span subspaces with W H W^T = 0."""
    if W.shape[1] == 0:
        return np.ones(W.shape[0], dtype=bool)
    G = space.matmul(space.matmul(W, H), W.transpose(0, 2, 1))
    return (G == 0).all(axis=(1, 2))
