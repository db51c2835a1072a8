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

import os
import random
import time

import numpy as np

from .errors import (BudgetExceeded, InvariantViolation, NotStronglyRegular,
                     PrecisionExhausted, SchemaError, TargetUnreachable,
                     is_json_int, require)
from .fqpoly import is_irreducible
from .group_ring import build_group_order, group_counts, lie_transport
from .hermitian import (build_hermitian_quotient, lattice_counts,
                        split_factor_check)
from .invariants import (InvariantPair, MatrixE, char_poly_disc,
                         delta_invariant, invariants_of, strong_regularity,
                         v_invariant)
from .kspace import (KSpace, batch_form_vanishes, batch_stable_mask,
                     gaussian_binomial, iter_rref_bases, iter_sum_bases)
from .local_field import (EElem, TruncSeries, eelem_from_obj, eelem_to_obj,
                          eta, field_desc, j_power)
from .order_lattices import (_work_budget, build_order, build_quotient,
                             form_sheets, signed_sum, walk)

SCHEMA_VERSION = 1
PRECISION_CAP = 256
RETRY_CAP = 64


class Verdict:
    """Outcome of one identity check.

    expected_relation is "equal" when eta(Delta) = +1 (the two counts
    must agree) and "both_zero" when eta(Delta) = -1 (each side must
    vanish).  flags carry advisories that do not affect pass/fail.
    order and quotient are what the counts were taken on: the order
    (OrderData or GroupOrderData) and its quotient Q at the verdict's
    precision.  The oracles read them; to_obj leaves them out.
    """

    __slots__ = ("n", "q", "ext", "mode", "v", "eta_delta", "m",
                 "signed_sum", "N", "expected_relation", "passed", "flags",
                 "precision", "wall_ms", "order", "quotient")

    def __init__(self, n, q, ext, mode, v, eta_delta, m, signed, N,
                 flags, precision, wall_ms, order, quotient):
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
        self.order = order
        self.quotient = quotient

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


def escalate_precision(build, precision):
    """(build(N), N) for the first working precision N that resolves.

    N starts at precision and doubles on PrecisionExhausted, or jumps
    to the raised hint when that is larger, up to PRECISION_CAP.  Exact
    inputs always converge this way; truncated inputs that are genuinely
    too shallow keep raising and eventually surface the original error.
    """
    N = precision
    while True:
        try:
            return build(N), N
        except PrecisionExhausted as exc:
            bumped = max(2 * N, exc.needed or 0)
            if bumped > PRECISION_CAP:
                raise
            N = bumped


def _verdict(ab, mode, count, precision, t0):
    """The verdict body of both versions.

    count(N) returns (order, Q, m, self-dual count) at working precision
    N; it runs at the precision given (default 2n+4) and escalates as
    escalate_precision describes.  t0 is when the verdict started.
    """
    desc = ab.desc
    n = ab.n
    (order, Q, m, Ncnt), N = escalate_precision(
        count, precision if precision is not None else auto_precision(n))
    flags = []
    if desc.p <= n:
        flags.append("outside_proven_range")
    if mode == "group":
        b0val = ab.b[0].val()
        if b0val is None or b0val > 0:
            flags.append("nonunit_b0")
    v = order.val_delta
    wall = int((time.monotonic() - t0) * 1000)
    return Verdict(n, desc.q, desc.ext, mode, v, eta(v, desc),
                   m, signed_sum(m, desc), Ncnt, flags, N, wall, order, Q)


def _lie_verdict(ab, order, precision, t0):
    """Lie verdict on a built order, which does not depend on N."""
    def count(N):
        Q = build_quotient(order, N)
        return (order, Q) + lattice_counts(Q)

    return _verdict(ab, "lie", count, precision, t0)


def verify_count_identity(ab, precision=None):
    """Full pipeline verdict for a Lie-algebra invariant pair.

    The order is built once; the quotients and both counts are built at
    each working precision the escalation tries.
    """
    t0 = time.monotonic()
    return _lie_verdict(ab, build_order(ab), precision, t0)


def verify_group_identity(ab, precision=None):
    """Verdict for a group-version pair (t invertible, theta-fixed ring).

    The group order depends on N, so it is built at each working
    precision the escalation tries."""
    def count(N):
        order = build_group_order(ab, N)
        m, Ncnt, Q = group_counts(order, N)
        return order, Q, m, Ncnt

    return _verdict(ab, "group", count, precision, time.monotonic())


def oracle_checks(ab, mode, precision=None):
    """(ok, lines): the verdict of ab and every slow oracle that applies.

    A group verdict is rechecked through its order's Lie transport.  A
    Lie verdict is rechecked by the naive scans of its quotient and of
    the Hermitian double (skipped, with the reason, past the work
    budget) and, when split, by the factor bijection.  Both are
    recounted at precision +1..+3: the Lie verdict from its own order,
    the group verdict from group orders rebuilt at each precision.
    """
    checks, lines = [], []

    def check(name, agree, shown=""):
        checks.append(agree)
        lines.append(f"{name}: " + ("agrees" if agree else f"MISMATCH{shown}"))

    if mode == "group":
        verdict = verify_group_identity(ab, precision=precision)
        lie = verify_count_identity(lie_transport(verdict.order))
        agree = (lie.signed_sum, lie.N) == (verdict.signed_sum, verdict.N)
        checks.append(agree)
        lines += [f"group verdict: signed_sum={verdict.signed_sum} "
                  f"N={verdict.N} pass={verdict.passed}",
                  f"lie transport: signed_sum={lie.signed_sum} N={lie.N} "
                  f"({'agrees' if agree else 'MISMATCH'})"]
    else:
        verdict = verify_count_identity(ab, precision=precision)
        lines.append(f"verdict: v={verdict.v} m={verdict.m} "
                     f"signed_sum={verdict.signed_sum} N={verdict.N} "
                     f"pass={verdict.passed}")
        Q = verdict.quotient
        QE = build_hermitian_quotient(verdict.order, ab.desc,
                                      verdict.precision, fq=Q)
        for name, X, want in (("naive submodule scan", Q, verdict.m),
                              ("naive self-dual scan", QE, verdict.N)):
            try:
                got = naive_subspace_oracle(X)
            except BudgetExceeded as e:
                lines.append(f"{name}: skipped ({e})")
                continue
            check(name, got == want, f" {got}")
        if ab.desc.is_split:
            check("split factor bijection", split_factor_check(Q, QE))
    stable = True
    for N in range(verdict.precision + 1, verdict.precision + 4):
        again = (verify_group_identity(ab, precision=N) if mode == "group"
                 else _lie_verdict(ab, verdict.order, N, time.monotonic()))
        stable = stable and (again.m, again.N) == (verdict.m, verdict.N)
    check("precision stability +1..+3", stable)
    ok = all(checks)
    lines.append("agreement: " + ("all applicable oracles agree" if ok
                                  else "MISMATCH found"))
    return ok, lines


def dvr_closed_form(d, residue_deg, desc):
    """Predicted signed sum (= N) when the order is a DVR.

    d is the length of the dual quotient as a module over the order
    itself; residue_deg its residue field degree over k.  Split chains
    give d+1; inert gives d+1 when the residue degree is even and 1
    when it is odd (d must then be even, else the sum cancels to 0 and
    the closed form does not apply).  ValueError on an odd inert length
    and on a negative d.
    """
    if d < 0:
        raise ValueError(f"length d = {d} is negative")
    if desc.is_split:
        return d + 1
    if (d * residue_deg) % 2:
        raise ValueError("inert closed form needs even length")
    if residue_deg % 2 == 0:
        return d + 1
    return 1


def naive_subspace_oracle(Q):
    """Exhaustive recount over echelon bases, using nothing from the walk.

    For a plain quotient returns the full bucket list m_0..m_v by
    scanning every subspace of every dimension and keeping those stable
    under all operators.  For a Hermitian quotient returns the single
    self-dual count: dimension-v subspaces that are stable and on which
    every sheet of the Hermitian form vanishes, all 2v of them derived
    from the stored pair (re P^r and im P^r, r < v), not only the one
    sheet the walk reads.  A self-dual lattice is an O_E-module, so it is
    a k_E-subspace of Q_E (k_E = F_(q^2) inert, k x k split, where Q_E
    is stored in j's eigen-coordinates), and the scan enumerates those
    alone (_selfdual_candidates) and loses nothing.  Every operator
    test, J's included, still runs on each of them, so the J test
    rechecks that enumeration.  A candidate is dropped at the first
    operator or sheet that rejects it, so later tests run on the
    survivors only.  The scan is exponential, so it
    refuses up front when its candidates, subspaces of Q or
    O_E-submodules of Q_E, exceed the node budget.
    """
    space, v = Q.space, Q.v
    q = space.q
    herm = hasattr(Q, "herm_re")
    if not herm:
        total = sum(gaussian_binomial(v, d, q) for d in range(v + 1))
    elif Q.desc.is_split:
        total = sum(gaussian_binomial(v, a, q) * gaussian_binomial(v, v - a, q)
                    for a in range(v + 1))
    else:
        total = gaussian_binomial(v, v // 2, q * q) if v % 2 == 0 else 0
    if total > _work_budget():
        raise BudgetExceeded(
            f"naive subspace scan over dimension {2 * v if herm else v} "
            f"refused", estimate=total)
    if v == 0:
        return 1 if herm else [1]

    def hits(batches, ops, sheets=()):
        count = 0
        for W, piv in batches:
            for op in ops:
                W = W[batch_stable_mask(space, W, piv, op)]
            for sheet in sheets:
                W = W[batch_form_vanishes(space, W, sheet)]
            count += len(W)
        return count

    if not herm:
        return [hits(iter_rref_bases(space, v, v - i), Q.ops)
                for i in range(v + 1)]
    return hits(*_selfdual_candidates(Q))


def _selfdual_candidates(Q):
    """(batches, ops, sheets): the O_E-submodules of dimension v of Q_E,
    yielded as (W, piv) with the identity at the columns piv, and Q_E's
    own operators and 2v sheets.

    Inert, x = xr + j xi.  The candidates are the (v/2)-dimensional
    F_(q^2)-subspaces of F_(q^2)^v, one RREF basis each, whose row
    w = (wr | wi) stands for the k-rows w and j w = (d wi | wr) with
    d = j^2; there are none when v is odd.  Split, Q_E is stored in j's
    eigen-coordinates Q + Q, so the candidates are the sums A + A' of
    subspaces of Q with dim A + dim A' = v, as they stand.
    """
    space, v = Q.space, Q.v
    sheets = (form_sheets(space, Q.herm_re, Q.P_op, v)
              + form_sheets(space, Q.herm_im, Q.P_op, v))
    if Q.desc.is_split:
        return iter_sum_bases(space, v), Q.ops, sheets
    if v % 2:
        return (), Q.ops, sheets
    d = Q.desc.jsq

    def with_j(W):
        # at the columns piv + (v + piv) the rows w and j w are the identity
        jW = np.concatenate([space.mul(W[..., v:], d), W[..., :v]], axis=2)
        return np.concatenate([W, jW], axis=1)

    batches = ((with_j(W), piv + tuple(v + c for c in piv))
               for W, piv in iter_rref_bases(space, v, v // 2, symbols=2))
    return batches, Q.ops, sheets


def matrix_orbit_oracle(A):
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
    verdict = verify_count_identity(ab)
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
    coeffs = []
    for l in range(min_val, deg + 1):
        c = rng.randrange(k.q)
        if unit_at is not None and l == unit_at:
            c = rng.randrange(1, k.q)
        coeffs.append(c)
    return TruncSeries(k, coeffs, min_val)


def _twisted_pair(desc, alphas, betas):
    """The pair a_i = j^i alpha_i, b_m = j^m beta_m of real series."""
    return InvariantPair(
        [j_power(desc, i, x) for i, x in enumerate(alphas, start=1)],
        [j_power(desc, m, x) for m, x in enumerate(betas)], desc)


def _delta_upto(ab, target):
    """Delta of ab, modulo pi^(target+1) when a target is given."""
    return delta_invariant(ab if target is None else ab.truncated(target + 1))


def rand_invariants(n, desc, target_val_delta=None, seed=0, family="generic"):
    """Seeded sampler for strongly regular parity-correct invariants.

    Families: "generic" (unconstrained), "eisenstein" (the untwisted
    characteristic polynomial is Eisenstein, so the order is a totally
    ramified DVR with residue degree 1), "irreducible" (irreducible mod
    pi: an unramified DVR with residue degree n).  A draw is the real
    series alpha_i and beta_m, and the pair a_i = j^i alpha_i,
    b_m = j^m beta_m.  When target_val_delta is given, draws are rejected
    until val Delta can be shifted onto the target by scaling b with a
    power of pi (Delta is homogeneous of degree n in b), up to 64
    attempts.  Only draws with val Delta <= target can be kept, and Delta
    modulo pi^(target+1) settles that, so each draw is decided on the
    pair truncated there; disc(P_a) is computed exactly, and only for
    draws that pass.
    """
    k = desc.k
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
                if is_irreducible(h, k):
                    break
        else:
            raise ValueError(f"unknown family {family!r}")
        betas = [_rand_real_poly(rng, k, deg) for _ in range(n)]
        ab = _twisted_pair(desc, alphas, betas)
        # Delta first, so a draw it rejects never pays for disc(P_a).
        # Exact Delta vanishes only when it is 0; modulo pi^(target+1)
        # it vanishes or shows a valuation past the target when
        # val Delta > target.
        delta = _delta_upto(ab, target_val_delta)
        if delta.val() is None:
            continue
        if target_val_delta is not None:
            gap = target_val_delta - delta.val()
            if gap < 0 or gap % n:
                continue
        if char_poly_disc(ab).val() is None:
            continue
        if target_val_delta is None:
            return ab.validate()
        if gap:
            # disc(P_a) depends on a only; Delta moves by n per power of pi
            betas = [x.shifted(gap // n) for x in betas]
            ab = _twisted_pair(desc, alphas, betas)
            delta = _delta_upto(ab, target_val_delta)
        require(delta.val() == target_val_delta,
                "scaling b did not move val Delta onto the target")
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
        except PrecisionExhausted:
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
        except (NotStronglyRegular, PrecisionExhausted):
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
    if not is_json_int(q):
        raise SchemaError("q", "expected an integer prime power")
    if not isinstance(ext, str):
        raise SchemaError("ext", "expected 'split' or 'inert'")
    desc = field_desc(q, ext)
    for key, want in (("p", desc.p), ("m", desc.m)):
        if key in obj and not is_json_int(obj[key]):
            raise SchemaError(key, "expected an integer")
        if key in obj and obj[key] != want:
            raise SchemaError(key, f"inconsistent with q={q}: expected {want}")
    n = obj["n"]
    if not is_json_int(n) or n < 1:
        raise SchemaError("n", "expected a positive integer")
    mode = obj.get("mode", "lie")
    if mode not in ("lie", "group"):
        raise SchemaError("mode", "expected 'lie' or 'group'")
    arrs = []
    for name in ("a", "b"):
        arr = obj[name]
        if not isinstance(arr, list) or len(arr) != n:
            raise SchemaError(f"instance.{name}",
                              f"expected an array of {n} elements")
        arrs.append([eelem_from_obj(cell, desc, f"{name}[{idx}]")
                     for idx, cell in enumerate(arr)])
    ab = InvariantPair(*arrs, desc)
    precision = obj.get("precision")
    if precision is not None:
        if not is_json_int(precision) or precision < 1:
            raise SchemaError("precision", "expected null or a positive integer")
        ab = ab.truncated(precision)
    if mode == "lie":
        ab.validate()
    else:
        ab.check_integrality()
    return ab, mode


def sweep(n, q, ext, max_val, count, seed, precision=None, jobs=1):
    """Batch of seeded verdicts as CSV-ready row dicts.

    Per-row seeds derive deterministically from the base seed; draws
    whose target valuation is unreachable advance a retry counter so the
    batch always delivers `count` rows with reproducible content.  Rows
    run in min(jobs, count, cpu count) worker processes, in this process
    when that is 1: a pool forks all its workers at the first submit, so
    jobs alone must not size it.
    """
    tasks = list(range(count))
    workers = min(jobs or 1, count, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
