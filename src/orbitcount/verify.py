"""Identity verification, closed forms, brute-force oracles, and samplers.

The headline check: for strongly regular invariants (a, b) the signed
count of stable submodules equals the self-dual count whenever eta(Delta)
is +1, and both vanish when it is -1.  Everything here either assembles
that verdict, predicts it in closed form on certified DVR families, or
recounts it.  The naive scans share no code with the fast enumerators.
The matrix oracle starts from a raw matrix instead of invariants, but
lists its candidate lattices with the same subspace walk, so the naive
scan is what checks that walk.
"""

import random
import time

import numpy as np

from .errors import (BudgetExceeded, Indeterminate, InvariantViolation,
                     NotStronglyRegular, PrecisionExhausted, SchemaError,
                     TargetUnreachable)
from .group_ring import build_group_order, group_counts
from .hermitian import build_hermitian_quotient, count_selfdual
from .invariants import (InvariantPair, MatrixE, invariants_of,
                         strong_regularity, v_invariant)
from .kspace import (KSpace, batch_form_vanishes, batch_stable_mask,
                     gaussian_binomial, iter_rref_bases)
from .local_field import (EElem, TruncSeries, eelem_to_obj, field_desc,
                          imaginary_unit)
from .order_lattices import (DEFAULT_MAX_V, _node_budget, _poly_pow_mod,
                             build_order, build_quotient,
                             enumerate_stable_submodules, signed_sum, walk)

SCHEMA_VERSION = 1
PRECISION_CAP = 256
RETRY_CAP = 64


class Verdict:
    """Outcome of one identity check.

    expected_relation is "equal" when eta(Delta) = +1 (the two counts
    must agree) and "both_zero" when eta(Delta) = -1 (each side must
    vanish).  flags carry advisories that do not affect pass/fail.
    """

    __slots__ = ("n", "q", "ext", "mode", "v", "eta_delta", "m",
                 "signed_sum", "N", "expected_relation", "passed", "flags",
                 "precision", "wall_ms")

    def __init__(self, n, q, ext, mode, v, eta_delta, m, signed, N,
                 flags, precision, wall_ms):
        self.n = n
        self.q = q
        self.ext = ext
        self.mode = mode
        self.v = v
        self.eta_delta = eta_delta
        self.m = m
        self.signed_sum = signed
        self.N = N
        self.expected_relation = "equal" if eta_delta == 1 else "both_zero"
        if eta_delta == 1:
            self.passed = signed == N
        else:
            self.passed = signed == 0 and N == 0
        self.flags = flags
        self.precision = precision
        self.wall_ms = wall_ms

    def to_obj(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "q": self.q,
            "ext": self.ext,
            "mode": self.mode,
            "v": self.v,
            "eta_delta": self.eta_delta,
            "m": list(self.m),
            "signed_sum": self.signed_sum,
            "N": self.N,
            "expected_relation": self.expected_relation,
            "pass": self.passed,
            "flags": list(self.flags),
            "precision": self.precision,
            "wall_ms": self.wall_ms,
        }

    def __repr__(self):
        word = "pass" if self.passed else "FAIL"
        return (f"Verdict(v={self.v}, eta={self.eta_delta:+d}, "
                f"signed={self.signed_sum}, N={self.N}, {word})")


def auto_precision(n):
    return 2 * n + 4


def _eta_of_val(v, desc):
    if desc.is_split:
        return 1
    return 1 if v % 2 == 0 else -1


def escalate_precision(build, precision):
    """(build(N), N) for the first working precision N that resolves.

    N starts at precision and doubles on PrecisionExhausted /
    Indeterminate, or jumps to the raised hint when that is larger, up
    to PRECISION_CAP.  Exact inputs always converge this way; truncated
    inputs that are genuinely too shallow keep raising and eventually
    surface the original error.
    """
    N = precision
    while True:
        try:
            return build(N), N
        except (PrecisionExhausted, Indeterminate) as exc:
            bumped = max(2 * N, exc.needed or 0)
            if bumped > PRECISION_CAP:
                raise
            N = bumped


def verify_count_identity(ab, precision=None, max_v=None):
    """Full pipeline verdict for a Lie-algebra invariant pair.

    The order is built once; the quotients and both counts are built at
    a working precision that starts at 2n+4 (or the explicit override)
    and escalates as escalate_precision describes.
    """
    t0 = time.monotonic()
    desc = ab.desc
    n = ab.n
    cap = DEFAULT_MAX_V if max_v is None else max_v
    order = build_order(ab)

    def counts(N):
        Q = build_quotient(order, N)
        m = enumerate_stable_submodules(Q, max_v=cap)
        QE = build_hermitian_quotient(order, desc, N, fq=Q)
        return m, count_selfdual(QE, max_v=cap)

    (m, Ncnt), N = escalate_precision(
        counts, precision if precision is not None else auto_precision(n))
    flags = []
    if desc.p <= n:
        flags.append("outside_proven_range")
    v = order.val_delta
    wall = int((time.monotonic() - t0) * 1000)
    return Verdict(n, desc.q, desc.ext, "lie", v, _eta_of_val(v, desc),
                   m, signed_sum(m, desc), Ncnt, flags, N, wall)


def verify_group_identity(ab, precision=None, max_v=None):
    """Verdict for a group-version pair (t invertible, theta-fixed ring)."""
    t0 = time.monotonic()
    desc = ab.desc
    n = ab.n
    cap = DEFAULT_MAX_V if max_v is None else max_v

    def counts(N):
        order = build_group_order(ab, N)
        m, Ncnt, _ = group_counts(order, N, max_v=cap)
        return order, m, Ncnt

    (order, m, Ncnt), N = escalate_precision(
        counts, precision if precision is not None else auto_precision(n))
    flags = []
    if desc.p <= n:
        flags.append("outside_proven_range")
    b0val = ab.b[0].val()
    if b0val is None or b0val > 0:
        flags.append("nonunit_b0")
    eta_delta = _eta_of_val(order.val_delta, desc)
    wall = int((time.monotonic() - t0) * 1000)
    return Verdict(n, desc.q, desc.ext, "group", order.val_delta, eta_delta,
                   m, signed_sum(m, desc), Ncnt, flags, N, wall)


def dvr_closed_form(d, residue_deg, desc):
    """Predicted signed sum (= N) when the order is a DVR.

    d is the length of the dual quotient as a module over the order
    itself; residue_deg its residue field degree over k.  Split chains
    give d+1; inert gives d+1 when the residue degree is even and 1
    when it is odd (d must then be even, else the sum cancels to 0 and
    the closed form does not apply).
    """
    assert d >= 0
    if desc.is_split:
        return d + 1
    assert (d * residue_deg) % 2 == 0, "inert closed form needs even length"
    if residue_deg % 2 == 0:
        return d + 1
    return 1


def naive_subspace_oracle(Q):
    """Exhaustive recount over all echelon bases, no pruning, no BFS.

    For a plain quotient returns the full bucket list m_0..m_v by
    scanning every subspace of every dimension and keeping those stable
    under all operators.  For a Hermitian quotient returns the single
    self-dual count: dimension-v subspaces that are stable and on which
    every torsion pairing sheet vanishes.  The scan is exponential, so
    it refuses up front when the subspace count exceeds the node
    budget.
    """
    herm = hasattr(Q, "herm_re")
    tot = 2 * Q.v if herm else Q.v
    dims = [Q.v] if herm else range(tot + 1)
    total = sum(gaussian_binomial(tot, d, Q.space.k.q) for d in dims)
    if total > _node_budget():
        raise BudgetExceeded(
            f"naive subspace scan over dimension {tot} refused",
            estimate=total)
    space = Q.space
    if tot == 0:
        return 1 if herm else [1]

    def stable_counts(d):
        hits = 0
        for W, piv in iter_rref_bases(space, tot, d, 2048):
            mask = None
            for op in Q.ops:
                cur = batch_stable_mask(space, W, piv, op)
                mask = cur if mask is None else (mask & cur)
            if herm:
                for sheet in list(Q.herm_re) + list(Q.herm_im):
                    mask = mask & batch_form_vanishes(space, W, sheet)
            hits += int(mask.sum())
        return hits

    if herm:
        return stable_counts(Q.v)
    m = [0] * (Q.v + 1)
    for d in range(Q.v + 1):
        m[Q.v - d] = stable_counts(d)
    return m


def matrix_orbit_oracle(A, max_v=None):
    """Lattice scan from a raw matrix, matching bucket counts against m.

    Enumerates O_F-lattices L in the first n-1 coordinates such that
    L_E + O_E e0 is A-stable, buckets them by the relative length
    leng(L : O_F^(n-1)), and checks #X_i = m_(v(A)-i) bucket by bucket
    against the stable-submodule counts of A's invariants, raising
    InvariantViolation on any mismatch.  For n = 2 the lattices form a
    single chain and the scan window is derived exactly from the two
    off-diagonal entries; for n >= 3 the scan covers the sandwich
    pi^M W <= L <= pi^-M W with M = val Delta, which requires A
    integral, and lists the candidate L with the same subspace walk as
    the fast count (the naive scan is the check on that walk).
    Returns {length: count}.
    """
    desc = A.desc
    n = A.n
    ab = invariants_of(A)
    vA = v_invariant(A)
    verdict = verify_count_identity(ab, max_v=max_v)
    m = verdict.m
    vd = verdict.v

    buckets = {}
    if n == 2:
        lo = -(A.entries[0][1].val())
        hi = A.entries[1][0].val()
        k = desc.k
        for ell in range(lo - 2, hi + 3):
            shift = EElem.from_real(desc, TruncSeries.pi_pow(k, ell))
            unshift = EElem.from_real(desc, TruncSeries.pi_pow(k, -ell))
            conj = [[A.entries[0][0], A.entries[0][1] * shift],
                    [A.entries[1][0] * unshift, A.entries[1][1]]]
            if all(conj[i][j].is_integral() for i in range(2) for j in range(2)):
                buckets[ell] = buckets.get(ell, 0) + 1
    else:
        if not A.is_integral():
            raise BudgetExceeded(
                "sandwich window needs integral entries for n >= 3")
        r = n - 1
        M = vd
        cdim = 2 * M * r
        if cdim > 24:
            raise BudgetExceeded(
                f"lattice scan dimension {cdim} refused", estimate=desc.q ** cdim)
        space = KSpace(desc.k)
        k = desc.k
        # residue coordinates: slot (i, f) holds the pi^(f-M) digit of
        # coordinate i; multiplication by pi shifts f up, top digit falls
        # into pi^M W and disappears
        P = np.zeros((cdim, cdim), dtype=np.int64)
        for i in range(r):
            for f in range(2 * M - 1):
                P[i * 2 * M + f + 1][i * 2 * M + f] = 1
        P = space.arr(P)
        for S in walk(space, cdim, P, []):
            gens = []
            for row in S.basis_matrix():
                vec = []
                for i in range(r):
                    s = TruncSeries.zero(k)
                    for f in range(2 * M):
                        c = int(row[i * 2 * M + f])
                        if c:
                            s = s + TruncSeries.pi_pow(k, f - M).scaled(c)
                    vec.append(EElem.from_real(desc, s))
                vec.append(EElem.zero(desc))
                gens.append(vec)
            for i in range(r):
                vec = [EElem.zero(desc)] * n
                vec[i] = EElem.from_real(desc, TruncSeries.pi_pow(k, M))
                gens.append(vec)
            e0vec = [EElem.zero(desc)] * n
            e0vec[n - 1] = EElem.one(desc)
            gens.append(e0vec)

            def inside(y):
                # membership in L_E + O_E e0; the real and imaginary parts
                # reduce independently, but each is one joint digit vector
                # across all W coordinates
                if not y[n - 1].is_integral():
                    return False
                for comps in ([y[i].re for i in range(r)],
                              [y[i].im for i in range(r)]):
                    digits = space.zeros(cdim)
                    for i, comp in enumerate(comps):
                        val = comp.val()
                        if val is not None and val < -M:
                            return False
                        for f in range(2 * M):
                            digits[i * 2 * M + f] = comp.coeff_at(f - M)
                    if not S.contains(digits):
                        return False
                return True

            if all(inside(A.apply(g)) for g in gens):
                length = S.dim - r * M
                buckets[length] = buckets.get(length, 0) + 1

    # bucket-by-bucket agreement with the fast pipeline
    for i, cnt in buckets.items():
        want = m[vA - i] if 0 <= vA - i <= vd else 0
        if cnt != want:
            raise InvariantViolation(
                f"matrix oracle: {cnt} lattices at length {i}, "
                f"but m_{vA - i} = {want}")
    if sum(buckets.values()) != sum(m):
        raise InvariantViolation(
            f"matrix oracle: {sum(buckets.values())} lattices in all, "
            f"but the m_i sum to {sum(m)}")
    return buckets


def _rand_real_poly(rng, k, deg, min_val=0, unit_at=None):
    """Random exact real polynomial in pi of degree <= deg."""
    s = TruncSeries.zero(k)
    for l in range(min_val, deg + 1):
        c = rng.randrange(k.q)
        if unit_at is not None and l == unit_at:
            c = rng.randrange(1, k.q)
        if c:
            s = s + TruncSeries.pi_pow(k, l).scaled(c)
    return s


def _irreducible_mod(h, k):
    """Irreducibility of a monic polynomial over F_q, Rabin style."""
    n = len(h) - 1
    if n == 1:
        return True
    s = [0, 1] + [0] * (n - 2)
    frob = _poly_pow_mod(s, k.q ** n, h, k)
    if frob != s:
        return False
    primes = set()
    t = n
    p2 = 2
    while p2 * p2 <= t:
        while t % p2 == 0:
            primes.add(p2)
            t //= p2
        p2 += 1
    if t > 1:
        primes.add(t)
    for pr in primes:
        g = _poly_pow_mod(s, k.q ** (n // pr), h, k)
        diff = [k.sub[a][b] for a, b in zip(g, s)]
        # gcd(x^(q^(n/pr)) - x, h) must be 1: h irreducible over the
        # subfield lattice iff the difference is a unit mod h, which for
        # monic irreducible candidates reduces to it having no common
        # root; cheap full gcd:
        u = list(diff)
        v = list(h)
        while any(u):
            while v and v[-1] == 0:
                v.pop()
            while u and u[-1] == 0:
                u.pop()
            if not u:
                break
            if len(u) > len(v):
                u, v = v, u
                continue
            lead = k.mul[v[-1]][k.inv[u[-1]]]
            off = len(v) - len(u)
            for i, c in enumerate(u):
                v[off + i] = k.sub[v[off + i]][k.mul[lead][c]]
        while v and v[-1] == 0:
            v.pop()
        if len(v) != 1:
            return False
    return True


def rand_invariants(n, desc, target_val_delta=None, seed=0, family="generic"):
    """Seeded sampler for strongly regular parity-correct invariants.

    Families: "generic" (unconstrained), "eisenstein" (the untwisted
    characteristic polynomial is Eisenstein, so the order is a totally
    ramified DVR with residue degree 1), "irreducible" (irreducible mod
    pi: an unramified DVR with residue degree n).  When target_val_delta
    is given, draws are rejected until val Delta can be shifted onto the
    target by scaling b with a power of pi (Delta is homogeneous of
    degree n in b), up to 64 attempts.
    """
    k = desc.k
    one = EElem.one(desc)
    j = imaginary_unit(desc)
    jp = [one]
    for _ in range(n):
        jp.append(jp[-1] * j)
    rng = random.Random(f"inv:{seed}:{n}:{desc.q}:{desc.ext}:"
                        f"{family}:{target_val_delta}")
    deg = 2 + (target_val_delta or 0)
    d_unit = desc.jsq

    for _ in range(RETRY_CAP):
        if family == "generic":
            alphas = [_rand_real_poly(rng, k, deg) for _ in range(n)]
        elif family == "eisenstein":
            alphas = [_rand_real_poly(rng, k, deg, min_val=1)
                      for _ in range(n - 1)]
            alphas.append(_rand_real_poly(rng, k, deg, min_val=1, unit_at=1))
        elif family == "irreducible":
            while True:
                alphas = [_rand_real_poly(rng, k, deg) for _ in range(n)]
                # untwisted char poly residue: s^n + sum (-1)^i d^i alpha_i s^(n-i)
                h = [0] * (n + 1)
                h[n] = 1
                for i in range(1, n + 1):
                    c = k.mul[k.pow(d_unit, i)][alphas[i - 1].coeff_at(0)]
                    h[n - i] = k.neg[c] if i % 2 == 1 else c
                if _irreducible_mod(h, k):
                    break
        else:
            raise ValueError(f"unknown family {family!r}")
        a = [jp[i] * EElem.from_real(desc, alphas[i - 1])
             for i in range(1, n + 1)]
        b = [jp[i] * EElem.from_real(desc, _rand_real_poly(rng, k, deg))
             for i in range(n)]
        ab = InvariantPair(a, b, desc)
        try:
            reg = strong_regularity(ab)
        except Indeterminate:
            continue
        if not reg.strongly_regular:
            continue
        if target_val_delta is None:
            return ab.validate()
        gap = target_val_delta - reg.val_delta
        if gap < 0 or gap % n:
            continue
        if gap:
            lift = EElem.from_real(desc, TruncSeries.pi_pow(k, gap // n))
            ab = InvariantPair(a, [x * lift for x in b], desc)
            reg = strong_regularity(ab)
        assert reg.val_delta == target_val_delta
        return ab.validate()
    raise TargetUnreachable(
        f"no strongly regular draw hit val Delta = {target_val_delta} "
        f"within {RETRY_CAP} attempts")


def rand_sn_matrix(n, desc, seed=0, max_val_delta=6):
    """Random integral matrix with purely imaginary entries.

    Entries are j times random real polynomials, which lands in the
    twisted space exactly (A + sigma(A) = 0, so b_0 = 1).  Resamples
    until strongly regular with val Delta within the requested bound.
    """
    k = desc.k
    rng = random.Random(f"mat:{seed}:{n}:{desc.q}:{desc.ext}")
    zero = TruncSeries.zero(k)
    for _ in range(RETRY_CAP):
        entries = []
        for i in range(n):
            row = []
            for j in range(n):
                re = zero
                im = _rand_real_poly(rng, k, 2)
                if rng.random() < 0.25:
                    im = im * TruncSeries.pi_pow(k, 1)
                row.append(EElem(desc, re, im))
            entries.append(row)
        A = MatrixE(entries, desc)
        ab = invariants_of(A)
        try:
            reg = strong_regularity(ab)
        except Indeterminate:
            continue
        if not reg.strongly_regular or reg.val_delta > max_val_delta:
            continue
        return A
    raise TargetUnreachable(
        f"no strongly regular matrix with val Delta <= {max_val_delta} "
        f"within {RETRY_CAP} attempts")


def _norm_one_constants(desc):
    k = desc.k
    out = []
    if desc.is_split:
        for c in range(1, k.q):
            out.append(EElem.from_split_pair(
                desc, TruncSeries.const(k, c), TruncSeries.const(k, k.inv[c])))
        return out
    d = desc.jsq
    for x in range(k.q):
        for y in range(k.q):
            if k.sub[k.mul[x][x]][k.mul[d][k.mul[y][y]]] == 1:
                out.append(EElem(desc, TruncSeries.const(k, x),
                                 TruncSeries.const(k, y)))
    return out


def rand_group_instance(n, desc, seed=0):
    """Seeded sampler for valid group-version pairs, n <= 2.

    Norm-1 leading coefficients over O_E with exact entries force a_n
    constant, so the sampler draws a_n from the finite norm-1 set and
    builds the remaining data to satisfy theta-stability and the
    b-compatibility identities by construction.
    """
    if n > 2:
        raise ValueError("group instance sampler covers n <= 2")
    k = desc.k
    rng = random.Random(f"grp:{seed}:{n}:{desc.q}:{desc.ext}")
    gammas = _norm_one_constants(desc)
    inv2 = EElem.from_real(desc, TruncSeries.const(k, k.inv[2]))

    def rand_eelem(deg):
        return EElem(desc, _rand_real_poly(rng, k, deg),
                     _rand_real_poly(rng, k, deg))

    for _ in range(RETRY_CAP):
        g = gammas[rng.randrange(len(gammas))]
        b0 = EElem.from_real(desc, _rand_real_poly(rng, k, 3))
        if n == 1:
            ab = InvariantPair([g], [b0], desc)
        else:
            x = rand_eelem(2)
            u = rand_eelem(2)
            a1 = x + g * x.sigma()
            b1 = a1 * b0 * inv2 + (u - g * u.sigma())
            ab = InvariantPair([a1, g], [b0, b1], desc)
        try:
            build_group_order(ab, auto_precision(n))
        except (NotStronglyRegular, Indeterminate, PrecisionExhausted):
            continue
        return ab
    raise TargetUnreachable(
        f"no valid group instance within {RETRY_CAP} attempts")


def instance_to_obj(ab, mode="lie"):
    desc = ab.desc
    return {
        "schema_version": SCHEMA_VERSION,
        "q": desc.q,
        "p": desc.p,
        "m": desc.m,
        "ext": desc.ext,
        "n": ab.n,
        "precision": ab.prec(),
        "mode": mode,
        "a": [eelem_to_obj(x) for x in ab.a],
        "b": [eelem_to_obj(x) for x in ab.b],
    }


def instance_from_obj(obj):
    """Parse and re-check an instance document.

    Lie-mode pairs get the full parity + integrality validation; group
    pairs get integrality here and the theta checks when the order is
    built.  Returns (ab, mode).
    """
    if not isinstance(obj, dict):
        raise SchemaError("instance", "expected a JSON object")
    for key in ("q", "ext", "n", "a", "b"):
        if key not in obj:
            raise SchemaError(key, "missing required field")
    q = obj["q"]
    ext = obj["ext"]
    if not isinstance(q, int):
        raise SchemaError("q", "expected an integer prime power")
    desc = field_desc(q, ext)
    for key, want in (("p", desc.p), ("m", desc.m)):
        if key in obj and obj[key] != want:
            raise SchemaError(key, f"inconsistent with q={q}: expected {want}")
    n = obj["n"]
    if not isinstance(n, int) or n < 1:
        raise SchemaError("n", "expected a positive integer")
    mode = obj.get("mode", "lie")
    if mode not in ("lie", "group"):
        raise SchemaError("mode", "expected 'lie' or 'group'")
    ab = InvariantPair.from_obj({"n": n, "a": obj["a"], "b": obj["b"]}, desc,
                                field="instance")
    precision = obj.get("precision")
    if precision is not None:
        if not isinstance(precision, int) or precision < 1:
            raise SchemaError("precision", "expected null or a positive integer")
        ab = ab.truncated(precision)
    if mode == "lie":
        ab.validate()
    else:
        for name, arr, offset in (("a", ab.a, 1), ("b", ab.b, 0)):
            for idx, x in enumerate(arr):
                if not x.is_integral():
                    raise SchemaError(f"{name}[{idx + offset}]",
                                      "integrality: valuation is negative")
    return ab, mode


def sweep(n, q, ext, max_val, count, seed, precision=None, jobs=1):
    """Batch of seeded verdicts as CSV-ready row dicts.

    Per-row seeds derive deterministically from the base seed; draws
    whose target valuation is unreachable advance a retry counter so the
    batch always delivers `count` rows with reproducible content.
    """
    tasks = list(range(count))
    if jobs and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(
                _sweep_row,
                [(n, q, ext, max_val, seed, i, precision) for i in tasks]))
    else:
        rows = [_sweep_row((n, q, ext, max_val, seed, i, precision))
                for i in tasks]
    return rows


def _sweep_row(args):
    n, q, ext, max_val, seed, i, precision = args
    desc = field_desc(q, ext)
    attempt = 0
    while True:
        row_seed = seed + 100003 * i + attempt
        target = random.Random(f"target:{row_seed}").randint(0, max_val)
        try:
            ab = rand_invariants(n, desc, target, seed=row_seed)
        except TargetUnreachable:
            attempt += 1
            if attempt > 50:
                raise
            continue
        verdict = verify_count_identity(ab, precision=precision)
        row = {
            "seed": row_seed,
            "n": n,
            "q": q,
            "ext": ext,
            "v": verdict.v,
            "eta_delta": verdict.eta_delta,
            "signed_sum": verdict.signed_sum,
            "N": verdict.N,
            "pass": verdict.passed,
            "wall_ms": verdict.wall_ms,
        }
        for idx, cnt in enumerate(verdict.m):
            row[f"m_{idx}"] = cnt
        return row
