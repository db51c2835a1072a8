"""Seeded instance sets for the three workloads, and the operation run
on each instance.

Rows are drawn by the sweep's row-seed rule (row i of a sweep with base
seed s uses seed s + 100003 i + attempt and draws its target valuation
from that seed), then kept or skipped to fill a fixed quota per stratum.
The quotas fix how many rows of each kind a set holds, so the set's cost
depends on the code far more than on the seed: verdict times within one
configuration span 1000x, driven by v and, at n = 3, by whether the
residual characteristic polynomial of T is irreducible.
"""

import random
from contextlib import nullcontext

from orbitcount.errors import TargetUnreachable
from orbitcount.group_ring import build_group_order, lie_transport
from orbitcount.hermitian import build_hermitian_quotient, split_factor_check
from orbitcount.invariants import invariants_of, v_invariant
from orbitcount.local_field import field_desc
from orbitcount.order_lattices import build_order, build_quotient
from orbitcount.verify import (matrix_orbit_oracle, naive_subspace_oracle,
                               rand_group_instance, rand_invariants,
                               rand_sn_matrix, verify_count_identity,
                               verify_group_identity)

from checks import (dvr_problems, equal_problems, matrix_bucket_problems,
                    verdict_problems, verdict_record)

ROW_STRIDE = 100003
MAX_ROWS = 400       # sweep rows scanned per stratified draw
MAX_ATTEMPTS = 50    # the sweep's own retry cap per row

# the acceptance sweep's configurations, all with p > n
ACCEPTANCE_CONFIGS = [
    (1, 3, "split"), (1, 3, "inert"), (1, 5, "split"), (1, 5, "inert"),
    (2, 3, "split"), (2, 3, "inert"), (2, 5, "split"), (2, 5, "inert"),
    (3, 5, "split"), (3, 5, "inert"),
]
EXTS = ("split", "inert")

# Row 29 of `orbitcount sweep --n 3 --q 5 --max-val 6 --seed 7`: T's
# residual minimal polynomial is a power of one cubic, and its self-dual
# walk closes thousands of lines to find a handful of lattices.
TAIL_SEED, TAIL_V = 2900094, 6


class Instance:
    """One generated input and how to regenerate it."""

    __slots__ = ("kind", "n", "q", "ext", "seed", "target", "family",
                 "data", "anchor")

    def __init__(self, kind, n, q, ext, seed, target, data, family=None,
                 anchor=False):
        self.kind = kind
        self.n = n
        self.q = q
        self.ext = ext
        self.seed = seed
        self.target = target
        self.family = family
        self.data = data
        self.anchor = anchor

    def label(self):
        out = f"{self.kind} n={self.n} q={self.q} {self.ext} seed={self.seed}"
        if self.target is not None:
            out += f" v={self.target}"
        if self.family:
            out += f" family={self.family}"
        return out


def _target(row_seed, max_val):
    return random.Random(f"target:{row_seed}").randint(0, max_val)


def _sweep_row(n, desc, max_val, seed, i):
    """(row_seed, target, invariants) of sweep row i, retrying as sweep does."""
    for attempt in range(MAX_ATTEMPTS + 1):
        row_seed = seed + ROW_STRIDE * i + attempt
        target = _target(row_seed, max_val)
        try:
            return row_seed, target, rand_invariants(n, desc, target,
                                                     seed=row_seed)
        except TargetUnreachable:
            continue
    raise TargetUnreachable(f"sweep row {i} of seed {seed} unreachable")


def residual_irreducible(ab):
    """Whether T's characteristic polynomial mod pi is irreducible (n = 3,
    prime q).  T is the companion matrix of jt, whose last column holds
    the real parts of -(j^i a_i) for even i and j^i a_i for odd i, so the
    residue is read off the constant digits of a; a cubic without a root
    in F_q is irreducible."""
    q, d, n = ab.desc.q, ab.desc.jsq, ab.n
    col = [0] * n
    for i in range(1, n + 1):
        a = ab.a[i - 1]
        if i % 2 == 0:
            col[n - i] = -pow(d, i // 2, q) * a.re.coeff_at(0) % q
        else:
            col[n - i] = pow(d, (i + 1) // 2, q) * a.im.coeff_at(0) % q
    return all((x ** 3 - col[2] * x * x - col[1] * x - col[0]) % q
               for x in range(q))


def stratified_rows(kind, n, q, ext, max_val, seed, quotas, classify=None):
    """Sweep rows in order, each kept while its (v, class) quota lasts."""
    desc = field_desc(q, ext)
    left = dict(quotas)
    out = []
    for i in range(MAX_ROWS):
        if not left:
            return out
        # skip without sampling when no stratum of the first target is open
        first = _target(seed + ROW_STRIDE * i, max_val)
        if not any(v == first for v, _ in left):
            continue
        row_seed, target, ab = _sweep_row(n, desc, max_val, seed, i)
        key = (target, classify(ab) if classify else None)
        if key in left:
            out.append(Instance(kind, n, q, ext, row_seed, target, ab))
            left[key] -= 1
            if not left[key]:
                del left[key]
    raise RuntimeError(f"{kind} n={n} q={q} {ext} seed={seed}: strata "
                       f"{sorted(left)} unfilled after {MAX_ROWS} rows")


def _seeded(sampler, seed, *args, **kwargs):
    """First sampler draw from seed, seed + 1, ... that is reachable."""
    for attempt in range(MAX_ATTEMPTS + 1):
        try:
            return seed + attempt, sampler(*args, seed=seed + attempt, **kwargs)
        except TargetUnreachable:
            continue
    raise TargetUnreachable(f"{sampler.__name__} unreachable from seed {seed}")


def lie_sweep(seed):
    out = []
    for n, q, ext in ACCEPTANCE_CONFIGS:
        if n == 3:
            # one row per v with a reducible residual polynomial, plus the
            # cheap irreducible strata; the v = 6 irreducible stratum is
            # the fixed tail row below.  Six irreducible v = 3 rows per
            # extension put op_p95_ms inside their cluster, not on its edge
            quotas = {(v, False): 1 for v in range(7)}
            quotas.update({(0, True): 1, (3, True): 6})
            out += stratified_rows("lie", n, q, ext, 6, seed, quotas,
                                   residual_irreducible)
        else:
            # several rows per v, so the rows around the median operation
            # are many and op_p50_ms moves little with the seed
            quotas = {(v, None): 3 if n == 1 else 2 for v in range(6)}
            quotas[(6, None)] = 1
            out += stratified_rows("lie", n, q, ext, 6, seed, quotas)
    # q = 9 runs kspace's prime-power table path; v stops at 4 because
    # one v = 6 row there costs as much as a tail row (about 3 s)
    for ext in EXTS:
        out += stratified_rows("lie", 2, 9, ext, 4, seed,
                               {(v, None): 1 for v in range(5)})
    for q in (3, 5):
        desc = field_desc(q, "inert")
        for family, vs in (("eisenstein", range(7)),
                           ("irreducible", range(0, 7, 2))):
            for i, v in enumerate(vs):
                s, ab = _seeded(rand_invariants, seed + ROW_STRIDE * i, 2,
                                desc, v, family=family)
                out.append(Instance("dvr", 2, q, "inert", s, v, ab, family))
    for ext in EXTS:
        ab = rand_invariants(3, field_desc(5, ext), TAIL_V, seed=TAIL_SEED)
        out.append(Instance("lie", 3, 5, ext, TAIL_SEED, TAIL_V, ab,
                            anchor=True))
    return out


def wide_order(seed):
    out = []
    # Rows at n = 5, and at v = 2, are drawn at lower v only: the sampler
    # hits a target v by rejection, which takes up to 1.3 s a row there
    # and moved the median set-up time 38 % between seeds 1-10 and 11-20.
    # Their verdicts do the same regularity and order build.
    for n, q, quotas in ((4, 5, (12, 4, 0)), (5, 7, (4, 0, 0))):
        for ext in EXTS:
            out += stratified_rows("lie", n, q, ext, 2, seed, {
                (v, None): c for v, c in enumerate(quotas) if c})
    return out


def crosscheck(seed):
    out = []
    # The naive Hermitian scan walks [2v choose v]_q subspaces.  n = 2 at
    # q = 9 stops at v = 1: a v = 2 cross-check there costs 0.1-0.33 s
    # depending on the module's shape, which swung wall_s by 25 % by seed;
    # n = 1 quotients are cyclic, so n = 1, v = 2 keeps the scan's
    # prime-power path busy at a steady cost.
    for q, max_vals in ((3, (3, 3)), (5, (2, 2)), (9, (2, 1))):
        for ext in EXTS:
            for n, max_val in zip((1, 2), max_vals):
                # two rows per v and four at the top v, so the ranks where
                # op_p50_ms and op_p95_ms fall hold many similar rows
                quotas = {(v, None): 2 for v in range(max_val)}
                quotas[(max_val, None)] = 4
                out += stratified_rows("cross", n, q, ext, max_val, seed,
                                       quotas)
    for q in (3, 5, 9):
        for ext in EXTS:
            desc = field_desc(q, ext)
            for i in range(4):
                s, A = _seeded(rand_sn_matrix, seed + ROW_STRIDE * i, 2, desc)
                out.append(Instance("matrix", 2, q, ext, s, None, A))
                for n in (1, 2):
                    s, ab = _seeded(rand_group_instance,
                                    seed + ROW_STRIDE * i, n, desc)
                    out.append(Instance("group", n, q, ext, s, None, ab))
    return out


WORKLOADS = {"lie-sweep": lie_sweep, "wide-order": wide_order,
             "crosscheck": crosscheck}


def _crosscheck_lie(inst, span):
    """What `orbitcount oracle` checks on one Lie instance."""
    ab = inst.data
    vd = verify_count_identity(ab)
    out = verdict_problems(verdict_record(vd, inst.target))
    order = build_order(ab)
    Q = build_quotient(order, vd.precision)
    QE = build_hermitian_quotient(order, ab.desc, vd.precision, fq=Q)
    out += equal_problems("naive submodule scan", naive_subspace_oracle(Q),
                          vd.m)
    out += equal_problems("naive self-dual scan", naive_subspace_oracle(QE),
                          vd.N)
    if ab.desc.is_split:
        out += equal_problems("split factor bijection",
                              split_factor_check(Q, QE), True)
    with span("verify.precision_recheck"):
        for dp in (1, 2, 3):
            redo = verify_count_identity(ab, precision=vd.precision + dp)
            out += equal_problems(f"(m, N) at precision +{dp}",
                                  (redo.m, redo.N), (vd.m, vd.N))
    return out


def _matrix(inst):
    A = inst.data
    vd = verify_count_identity(invariants_of(A))
    out = verdict_problems(verdict_record(vd))
    buckets = matrix_orbit_oracle(A)
    return out + matrix_bucket_problems(buckets, vd.m, v_invariant(A), vd.v)


def _group(inst):
    ab = inst.data
    gv = verify_group_identity(ab)
    out = verdict_problems(verdict_record(gv))
    order = build_group_order(ab, gv.precision)
    lv = verify_count_identity(lie_transport(order))
    out += verdict_problems(verdict_record(lv))
    return out + equal_problems("Lie transport (m, N, v)",
                                (lv.m, lv.N, lv.v), (gv.m, gv.N, gv.v))


def run_op(inst, tracer=None):
    """Run one operation; returns the problems its checks found."""
    if inst.kind in ("lie", "dvr"):
        rec = verdict_record(verify_count_identity(inst.data), inst.target)
        out = verdict_problems(rec)
        if inst.kind == "dvr":
            out += dvr_problems(inst.family, rec)
        return out
    if inst.kind == "cross":
        span = tracer.span if tracer else (lambda name: nullcontext())
        return _crosscheck_lie(inst, span)
    if inst.kind == "matrix":
        return _matrix(inst)
    return _group(inst)
