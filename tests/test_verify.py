"""Driver-level checks: verdicts, closed forms, samplers, oracles."""

import json
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import orbitcount
from orbitcount import group_ring, verify
from orbitcount.errors import BudgetExceeded, SchemaError, TargetUnreachable
from orbitcount.hermitian import (build_hermitian_quotient, count_selfdual,
                                  split_factor_check)
from orbitcount.invariants import InvariantPair, invariants_of, strong_regularity
from orbitcount.kspace import (EchelonBasis, batch_form_vanishes,
                               batch_stable_mask, gaussian_binomial,
                               iter_rref_bases)
from orbitcount.local_field import EElem, TruncSeries, field_desc
from orbitcount.order_lattices import (build_order, build_quotient,
                                       enumerate_stable_submodules,
                                       form_sheets)
from orbitcount.verify import (_norm_one_constants, _selfdual_candidates,
                               dvr_closed_form, instance_from_obj,
                               instance_to_obj, matrix_orbit_oracle,
                               naive_subspace_oracle, oracle_checks,
                               rand_group_instance, rand_invariants,
                               rand_sn_matrix, sweep, verify_count_identity,
                               verify_group_identity)

inert3 = field_desc(3, "inert")
split3 = field_desc(3, "split")
inert5 = field_desc(5, "inert")


def _pi_pair(desc, e):
    b0 = EElem.from_real(desc, TruncSeries.pi_pow(desc.k, e))
    return InvariantPair([EElem.zero(desc)], [b0], desc)


def test_verdict_frozen_chains():
    vd = verify_count_identity(_pi_pair(inert3, 2))
    assert (vd.signed_sum, vd.N, vd.passed) == (1, 1, True)
    assert vd.m == [1, 1, 1]
    assert vd.expected_relation == "equal"

    vd = verify_count_identity(_pi_pair(inert3, 1))
    assert (vd.signed_sum, vd.N, vd.passed) == (0, 0, True)
    assert vd.expected_relation == "both_zero"
    assert vd.eta_delta == -1

    vd = verify_count_identity(_pi_pair(split3, 3))
    assert (vd.signed_sum, vd.N, vd.passed) == (4, 4, True)
    assert sum(vd.m) == 4
    assert vd.eta_delta == 1


def test_verdict_to_obj_shape():
    obj = verify_count_identity(_pi_pair(inert3, 0)).to_obj()
    assert set(obj) == {"schema_version", "n", "q", "ext", "mode", "v",
                        "eta_delta", "m", "signed_sum", "N",
                        "expected_relation", "pass", "flags", "precision",
                        "wall_ms"}
    assert obj["schema_version"] == 1
    assert obj["mode"] == "lie"
    assert obj["pass"] is True
    assert obj["flags"] == []
    json.dumps(obj)


def test_precision_escalates_on_deep_valuation():
    # 2n+4 = 6 cannot resolve val Delta = 8; one doubling following the
    # raised hint lands on 18
    vd = verify_count_identity(_pi_pair(inert3, 8))
    assert vd.precision == 18
    assert vd.v == 8
    assert vd.m == [1] * 9
    assert vd.passed


def test_outside_proven_range_flag():
    for seed in range(8):
        try:
            ab = rand_invariants(3, inert3, 1, seed=seed)
        except TargetUnreachable:
            continue
        vd = verify_count_identity(ab)
        assert "outside_proven_range" in vd.flags
        return
    pytest.fail("no n = 3, q = 3 draw succeeded")


def test_dvr_closed_form_values():
    assert dvr_closed_form(2, 1, inert3) == 1
    assert dvr_closed_form(0, 1, inert3) == 1
    assert dvr_closed_form(3, 2, inert3) == 4
    assert dvr_closed_form(0, 2, inert3) == 1
    assert dvr_closed_form(3, 1, split3) == 4
    with pytest.raises(ValueError, match="even length"):
        dvr_closed_form(3, 1, inert3)
    with pytest.raises(ValueError, match="negative"):
        dvr_closed_form(-1, 2, split3)


def test_sampler_deterministic_and_targeted():
    hits = 0
    for n in (1, 2):
        for desc in (inert3, split3):
            for target in range(5):
                try:
                    ab = rand_invariants(n, desc, target, seed=3)
                except TargetUnreachable:
                    continue
                again = rand_invariants(n, desc, target, seed=3)
                assert instance_to_obj(ab) == instance_to_obj(again)
                assert strong_regularity(ab).val_delta == target
                hits += 1
    assert hits >= 12


def test_sampler_draws_pinned():
    """Draws of rand_invariants, recorded when every draw computed
    disc(P_a) and Delta together; testing Delta first must reject and
    accept exactly the same draws.  A null draw is TargetUnreachable."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        "sampler_draws.json")
    with open(path) as fh:
        pinned = json.load(fh)
    assert len(pinned) == 100
    for rec in pinned:
        n, q, ext, target, family = rec["case"]
        try:
            got = instance_to_obj(rand_invariants(
                n, field_desc(q, ext), target, seed=1, family=family))
        except TargetUnreachable:
            got = None
        assert got == rec["draw"], rec["case"]


def _deep_draws():
    path = os.path.join(os.path.dirname(__file__), "data",
                        "sampler_draws_deep.json")
    with open(path) as fh:
        return json.load(fh)


def _draw(case):
    n, q, ext, target, seed, family = case
    try:
        return instance_to_obj(rand_invariants(
            n, field_desc(q, ext), target, seed=seed, family=family))
    except TargetUnreachable:
        return None


def test_sampler_draws_pinned_deep():
    """Draws at the deep targets, recorded when every draw computed Delta
    exactly over E: the sweep strata at v = 5 and 6 (q = 3 and 5 at
    n <= 2, q = 5 at n = 3), the DVR families at v = 0..6, and four draws
    whose Delta modulo pi^(target+1) shows a valuation past the target,
    which must still be rejected.  A case is (n, q, ext, target, seed,
    family); a null draw is TargetUnreachable."""
    pinned = _deep_draws()
    assert len(pinned) == 148
    for rec in pinned:
        assert _draw(rec["case"]) == rec["draw"], rec["case"]


def test_sampler_series_products_bounded(monkeypatch):
    """The pinned draws decide Delta on the real forms truncated at
    pi^(target+1).  Over E, with exact Delta, they took 312,316 series
    products; now 63,856.  The count is exact: the draws are seeded."""
    calls = [0]
    mul = TruncSeries.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(TruncSeries, "__mul__", counted)
    path = os.path.join(os.path.dirname(__file__), "data",
                        "sampler_draws.json")
    with open(path) as fh:
        cases = [rec["case"][:4] + [1, rec["case"][4]]
                 for rec in json.load(fh)]
    for case in cases + [rec["case"] for rec in _deep_draws()]:
        _draw(case)
    assert calls[0] <= 63_856


def test_family_coefficient_shapes():
    for desc in (inert3, inert5):
        for seed in range(5):
            ab = rand_invariants(2, desc, seed=seed, family="eisenstein")
            vals = [x.val() for x in ab.a]
            assert all(v is None or v >= 1 for v in vals)
            assert vals[-1] == 1
            ab = rand_invariants(2, desc, seed=seed, family="irreducible")
            assert ab.a[-1].val() == 0
    with pytest.raises(ValueError, match="family"):
        rand_invariants(1, inert3, seed=0, family="quadratic")


def test_group_verdict_passes():
    for desc in (inert3, split3):
        for seed in range(2):
            ab = rand_group_instance(2, desc, seed=seed)
            vd = verify_group_identity(ab)
            assert vd.passed
            assert vd.mode == "group"


def test_group_flags_nonunit_b0():
    one = next(g for g in _norm_one_constants(inert3)
               if g.agrees_with(EElem.one(inert3)))
    b0 = EElem.from_real(inert3, TruncSeries.pi_pow(inert3.k, 2))
    vd = verify_group_identity(InvariantPair([one], [b0], inert3))
    assert "nonunit_b0" in vd.flags
    assert vd.passed
    assert vd.v == 2


def test_group_sampler_caps_n():
    with pytest.raises(ValueError, match="n <= 2"):
        rand_group_instance(3, inert3)


def test_instance_roundtrip():
    ab = rand_invariants(2, inert3, 3, seed=5)
    obj = instance_to_obj(ab)
    ab2, mode = instance_from_obj(obj)
    assert mode == "lie"
    assert instance_to_obj(ab2) == obj

    grp = rand_group_instance(2, split3, seed=2)
    gobj = instance_to_obj(grp, mode="group")
    grp2, gmode = instance_from_obj(gobj)
    assert gmode == "group"
    assert instance_to_obj(grp2, mode="group") == gobj


def test_instance_schema_errors():
    base = instance_to_obj(rand_invariants(1, inert3, 1, seed=1))

    bad = dict(base)
    bad["q"] = 4
    with pytest.raises(SchemaError, match="q"):
        instance_from_obj(bad)

    bad = dict(base)
    bad["p"] = 7
    with pytest.raises(SchemaError, match="p"):
        instance_from_obj(bad)

    bad = dict(base)
    del bad["a"]
    with pytest.raises(SchemaError, match="a"):
        instance_from_obj(bad)

    bad = dict(base)
    bad["mode"] = "adjoint"
    with pytest.raises(SchemaError, match="mode"):
        instance_from_obj(bad)

    bad = dict(base)
    bad["precision"] = 0
    with pytest.raises(SchemaError, match="precision"):
        instance_from_obj(bad)

    bad = dict(base)
    bad["n"] = 0
    with pytest.raises(SchemaError, match="n"):
        instance_from_obj(bad)

    with pytest.raises(SchemaError, match="instance"):
        instance_from_obj([1, 2])

    # malformed shapes are refused by name, not by a TypeError
    bad = json.loads(json.dumps(base))
    bad["a"][0]["inert"]["coeffs"] = None
    with pytest.raises(SchemaError, match=r"^a\[0\]\.inert\.coeffs:"):
        instance_from_obj(bad)

    bad = instance_to_obj(rand_invariants(1, split3, 1, seed=1))
    bad["b"][0]["split"][1]["coeffs"] = 5
    with pytest.raises(SchemaError, match=r"^b\[0\]\.split\[1\]\.coeffs:"):
        instance_from_obj(bad)

    # a and b must be arrays of n elements
    bad = dict(base)
    bad["a"] = base["a"] * 2
    with pytest.raises(SchemaError,
                       match=r"^instance\.a: expected an array of 1 elements$"):
        instance_from_obj(bad)

    bad = dict(base)
    bad["b"] = base["b"][0]
    with pytest.raises(SchemaError,
                       match=r"^instance\.b: expected an array of 1 elements$"):
        instance_from_obj(bad)

    bad = dict(base)
    bad["ext"] = ["split"]
    with pytest.raises(SchemaError, match="^ext:"):
        instance_from_obj(bad)

    # parity violations surface on the lie-mode re-validation
    unvalidated = instance_to_obj(InvariantPair(
        [EElem.one(inert3)], [EElem.one(inert3)], inert3))
    with pytest.raises(SchemaError, match=r"a\[1\]"):
        instance_from_obj(unvalidated)


BOOL_FIELDS = [
    ("q", ("q",)), ("n", ("n",)), ("precision", ("precision",)),
    ("b[0].inert.shift", ("b", 0, "inert", "shift")),
    ("b[0].inert.coeffs[0]", ("b", 0, "inert", "coeffs", 0, 0)),
    ("b[0].split[1].shift", ("b", 0, "split", 1, "shift")),
    ("b[0].split[0].coeffs[0]", ("b", 0, "split", 0, "coeffs", 0, 0)),
]


@pytest.mark.parametrize("key,value", [("p", True), ("p", 3.0),
                                       ("m", True), ("m", 1.0)])
def test_instance_schema_rejects_non_integer_p_m(key, value):
    # q = 3 has p = 3 and m = 1, and True == 1, 3.0 == 3 and 1.0 == 1,
    # so only a type check refuses these
    obj = instance_to_obj(rand_invariants(1, inert3, 1, seed=1))
    obj[key] = value
    with pytest.raises(SchemaError, match=f"^{key}: expected an integer$"):
        instance_from_obj(obj)


@pytest.mark.parametrize("field,path", BOOL_FIELDS,
                         ids=[f for f, _ in BOOL_FIELDS])
def test_instance_schema_rejects_booleans(field, path):
    # isinstance(True, int) holds, so a JSON true must be refused by name
    # rather than read as 1
    desc = split3 if "split" in path else inert3
    obj = json.loads(json.dumps(instance_to_obj(
        rand_invariants(1, desc, 1, seed=1))))
    at = obj
    for key in path[:-1]:
        at = at[key]
    at[path[-1]] = True
    with pytest.raises(SchemaError, match="^" + re.escape(field) + ":"):
        instance_from_obj(obj)


def test_sweep_deterministic():
    rows1 = sweep(1, 3, "inert", 4, 6, seed=11)
    rows2 = sweep(1, 3, "inert", 4, 6, seed=11)

    def strip(r):
        return {k: v for k, v in r.items() if k != "wall_ms"}

    assert [strip(r) for r in rows1] == [strip(r) for r in rows2]
    assert all(r["pass"] for r in rows1)
    assert all(r["v"] <= 4 for r in rows1)
    for r in rows1:
        assert set(r) >= {"seed", "n", "q", "ext", "v", "eta_delta",
                          "signed_sum", "N", "pass", "wall_ms", "m_0"}
        assert all(f"m_{i}" in r for i in range(r["v"] + 1))


_PINNED_SWEEPS = ([(n, q, ext, 6, 12) for n in (1, 2) for q in (3, 5, 9)
                   for ext in ("split", "inert")]
                  + [(3, 5, ext, 4, 8) for ext in ("split", "inert")])


def _pinned_verdicts():
    """Sweep rows (seed 1) and group verdicts as tests/data/verdicts.json
    holds them: wall_ms dropped, one record per row.  A sweep row does
    not show the precision its verdict landed at, so the record adds it,
    from the row's instance drawn again.  The group cases are those of
    tests/data/group_orders.json."""
    records = []
    for n, q, ext, max_val, count in _PINNED_SWEEPS:
        for row in sweep(n, q, ext, max_val, count, 1):
            del row["wall_ms"]
            target = random.Random(f"target:{row['seed']}").randint(
                0, max_val)
            ab = rand_invariants(n, field_desc(q, ext), target,
                                 seed=row["seed"])
            records.append({"sweep": row, "precision":
                            verify_count_identity(ab).precision})
    path = os.path.join(os.path.dirname(__file__), "data",
                        "group_orders.json")
    with open(path) as fh:
        cases = [rec["case"] for rec in json.load(fh)]
    for n, q, ext, seed in cases:
        obj = verify_group_identity(
            rand_group_instance(n, field_desc(q, ext), seed=seed)).to_obj()
        del obj["wall_ms"]
        records.append({"case": [n, q, ext, seed], "group": obj})
    return records


def test_verdicts_pinned():
    """Sweep rows and group verdicts, minus wall_ms, recorded before the
    dead report fields and the second eta left the package; compared
    as canonical JSON, so a bool that turns into an int fails too."""
    path = os.path.join(os.path.dirname(__file__), "data", "verdicts.json")
    with open(path) as fh:
        pinned = json.load(fh)
    got = _pinned_verdicts()
    assert len(got) == len(pinned) == 256
    for want, rec in zip(pinned, got):
        assert (json.dumps(rec, sort_keys=True)
                == json.dumps(want, sort_keys=True)), want


def test_naive_oracle_small_agreement():
    Q = build_quotient(build_order(_pi_pair(inert3, 2)), 12)
    assert naive_subspace_oracle(Q) == enumerate_stable_submodules(Q)


def _all_masks_count(Q):
    """The naive scan over every k-subspace, without staging: every test
    runs on every basis of the batch and the masks are AND-ed.  On Q_E it
    scans all v-dimensional k-subspaces of k^(2v), not only the
    O_E-submodules the oracle enumerates."""
    herm = hasattr(Q, "herm_re")
    tot = 2 * Q.v if herm else Q.v
    sheets = (form_sheets(Q.space, Q.herm_re, Q.P_op, Q.v)
              + form_sheets(Q.space, Q.herm_im, Q.P_op, Q.v)) if herm else []

    def count(d):
        hits = 0
        for W, piv in iter_rref_bases(Q.space, tot, d):
            mask = batch_stable_mask(Q.space, W, piv, Q.ops[0])
            for op in Q.ops[1:]:
                mask &= batch_stable_mask(Q.space, W, piv, op)
            for H in sheets:
                mask &= batch_form_vanishes(Q.space, W, H)
            hits += int(mask.sum())
        return hits

    return count(Q.v) if herm else [count(Q.v - i) for i in range(Q.v + 1)]


def _double(n, q, ext, v):
    vd = verify_count_identity(rand_invariants(n, field_desc(q, ext), v,
                                               seed=0))
    Q = vd.quotient
    return Q, build_hermitian_quotient(vd.order, Q.desc, vd.precision, fq=Q)


def _oe_count(q, ext, v):
    """O_E-submodules of dimension v in Q_E: [v, v/2]_(q^2) inert,
    sum_a [v, a]_q [v, v - a]_q split."""
    if ext == "split":
        return sum(gaussian_binomial(v, a, q) * gaussian_binomial(v, v - a, q)
                   for a in range(v + 1))
    return gaussian_binomial(v, v // 2, q * q) if v % 2 == 0 else 0


# q = 3, v = 3 rows scan [6 choose 3]_3 = 33,880 k-subspaces for Q_E in
# the full scan; the q = 9 rows run kspace's prime-power table path
@pytest.mark.parametrize("n,q,ext,v", [(2, 3, "split", 3), (2, 3, "inert", 3),
                                       (1, 9, "split", 2), (1, 9, "inert", 2),
                                       (2, 5, "split", 2)])
def test_staged_naive_scan_matches_all_masks(n, q, ext, v):
    Q, QE = _double(n, q, ext, v)
    m = naive_subspace_oracle(Q)
    assert m == _all_masks_count(Q) == enumerate_stable_submodules(Q)
    N = naive_subspace_oracle(QE)
    assert N == _all_masks_count(QE) == count_selfdual(Q)
    assert len(m) == v + 1


@pytest.mark.parametrize("ext", ["inert", "split"])
@pytest.mark.parametrize("q", [3, 5, 9])
def test_selfdual_candidates_are_the_oe_submodules(q, ext):
    """The self-dual scan's candidates, taken back to Q_E's coordinates
    (x = y C^-1 with C^-1 = [[I, I], [I, -I]] when split), are as many
    as there are O_E-submodules of dimension v, pairwise distinct, and
    each of dimension v and J-stable."""
    for v in range(4):
        _, QE = _double(1, q, ext, v)
        assert QE.v == v
        sp = QE.space
        back = np.eye(2 * v, dtype=np.int64)
        if ext == "split":
            eye = np.eye(v, dtype=np.int64)
            back = np.block([[eye, eye], [eye, sp.neg(eye)]])
        keys = set()
        count = 0
        for W, _ in _selfdual_candidates(QE)[0]:
            for X in sp.matmul(W, back):
                eb = EchelonBasis(sp, 2 * v)
                for x in X:
                    eb.insert(x)
                assert eb.dim == v
                assert all(eb.contains(y) for y in sp.matmul(X, QE.J_op.T))
                keys.add(eb.key())
                count += 1
        assert count == len(keys) == _oe_count(q, ext, v), (v, count)


def test_naive_oracle_budget(monkeypatch):
    monkeypatch.setenv("ORBITAL_BUDGET", "10")
    Q = build_quotient(build_order(_pi_pair(inert3, 4)), 12)
    with pytest.raises(BudgetExceeded) as exc:
        naive_subspace_oracle(Q)
    assert exc.value.estimate == 212


@pytest.mark.parametrize("ext,want", [("inert", 7462), ("split", 20102)])
def test_selfdual_scan_budget_counts_oe_candidates(monkeypatch, ext, want):
    """The Q_E scan's budget unit is O_E candidates: a budget one below
    their count refuses with that count as the estimate, and the count
    itself runs."""
    Q, QE = _double(2, 3, ext, 4)
    assert QE.v == 4 and _oe_count(3, ext, 4) == want
    monkeypatch.setenv("ORBITAL_BUDGET", str(want - 1))
    with pytest.raises(BudgetExceeded) as exc:
        naive_subspace_oracle(QE)
    assert exc.value.estimate == want
    monkeypatch.setenv("ORBITAL_BUDGET", str(want))
    assert naive_subspace_oracle(QE) == count_selfdual(Q)


def test_sweep_workers_capped(monkeypatch):
    """sweep sizes its pool by min(jobs, count, cpu count) and runs in
    process when that is 1; a stand-in pool records the size and maps
    serially, so no process starts."""
    import concurrent.futures

    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    for cpus, jobs, count, want in ((4, 10000, 3, [3]), (4, 10000, 6, [4]),
                                    (4, 2, 6, [2]), (None, 10000, 3, []),
                                    (4, 1, 3, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        rows = sweep(1, 3, "split", 2, count, 9, jobs=jobs)
        assert sizes == want, (cpus, jobs, count)
        assert len(rows) == count


def test_oracle_checks_reuse_the_verdict(monkeypatch):
    """The oracles read the verdict's order and quotient: a Lie instance
    builds its order once, rechecks at +1..+3 included, and a group
    instance searches a generator once per precision tried (the verdict
    and three rechecks), none to hand the transport an order."""
    lie = rand_invariants(1, split3, 2, seed=3)
    grp = rand_group_instance(1, inert3, seed=5)
    calls = []
    for mod, name in ((verify, "build_order"),
                      (group_ring, "_find_generator")):
        monkeypatch.setattr(mod, name, lambda *a, f=getattr(mod, name),
                            name=name: calls.append(name) or f(*a))
    assert oracle_checks(lie, "lie")[0]
    assert calls == ["build_order"]
    del calls[:]
    assert oracle_checks(grp, "group")[0]
    assert sorted(calls) == ["_find_generator"] * 4 + ["build_order"]


def test_matrix_oracle_two_by_two():
    for desc in (inert3, split3):
        for seed in range(4):
            A = rand_sn_matrix(2, desc, seed=seed)
            buckets = matrix_orbit_oracle(A)
            vd = verify_count_identity(invariants_of(A))
            assert sum(buckets.values()) == sum(vd.m)


def test_matrix_oracle_three_by_three():
    # the oracle checks bucket-by-bucket agreement internally
    for seed in (1, 5):
        A = rand_sn_matrix(3, inert5, seed=seed, max_val_delta=2)
        buckets = matrix_orbit_oracle(A)
        assert sum(buckets.values()) >= 1


# Feeds the matrix oracle bucket counts that are one too high everywhere;
# prints __debug__ so the test can tell that -O really stripped asserts.
CORRUPT_M = """
import orbitcount.hermitian as hermitian
import orbitcount.verify as verify
from orbitcount.errors import InvariantViolation
from orbitcount.local_field import field_desc
real = hermitian.enumerate_stable_submodules
hermitian.enumerate_stable_submodules = lambda Q: [c + 1 for c in real(Q)]
print(__debug__)
A = verify.rand_sn_matrix(2, field_desc(3, "inert"), seed=0)
try:
    verify.matrix_orbit_oracle(A)
except InvariantViolation as exc:
    print(exc)
    raise SystemExit(0)
raise SystemExit(1)
"""


@pytest.mark.parametrize("flags,debug", [([], "True"), (["-O"], "False")])
def test_matrix_oracle_rejects_wrong_counts(flags, debug):
    src = os.path.dirname(os.path.dirname(orbitcount.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *flags, "-c", CORRUPT_M], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split("\n")[0] == debug
    assert "matrix oracle" in proc.stdout


# Rows whose line walks once took seconds; the residue-field walk runs
# each in well under a second.  Counts are pinned to the line walk's.
# The v = 14 and v = 20 rows check that no verdict is refused by its
# dimension alone; each verdict takes under 0.5 s.  The split v = 14
# seed 0 row took 4-8 s while its self-dual count walked Q + j Q; it
# now pairs the stable walk's 123 nodes, and its split_factor_check,
# which walks the whole of Q_E (about 7 s), is the independent check
# on the row where the pair count saves the most.
@pytest.mark.parametrize("n,q,ext,v,seed,m,N", [
    (4, 5, "inert", 4, 2, [1, 0, 0, 0, 1], 2),
    (2, 9, "split", 6, 700022, [1, 0, 1, 0, 1, 0, 1], 4),
    (2, 9, "inert", 6, 700022, [1, 0, 1, 0, 1, 0, 1], 4),
    (2, 3, "split", 14, 1, [1] * 15, 15),
    (2, 3, "inert", 14, 0, [1, 2, 3, 4, 5, 6, 7, 7, 7, 6, 5, 4, 3, 2, 1], 1),
    (2, 3, "inert", 20, 1, [1, 0] * 10 + [1], 11),
    (2, 3, "split", 14, 0,
     [1, 1, 4, 7, 10, 13, 16, 19, 16, 13, 10, 7, 4, 1, 1], 123),
])
def test_slow_line_walk_rows(n, q, ext, v, seed, m, N):
    desc = field_desc(q, ext)
    ab = rand_invariants(n, desc, v, seed=seed)
    vd = verify_count_identity(ab)
    assert vd.passed and vd.v == v
    assert vd.m == m and vd.N == N
    if desc.is_split:
        QE = build_hermitian_quotient(vd.order, desc, vd.precision,
                                      fq=vd.quotient)
        assert split_factor_check(vd.quotient, QE)


# v = 16 rows whose T has two linear residual factors: one walk over the
# whole of Q and Q_E takes 11-12 s a row on a 2-core VM, the walks per
# block about 0.1 s.
@pytest.mark.parametrize("seed,m,N", [
    (3, [1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 7, 6, 5, 4, 3, 2, 1], 80),
    (4, [1, 2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, 2, 1], 81),
])
def test_two_factor_v16_rows(seed, m, N):
    ab = rand_invariants(2, field_desc(5, "split"), 16, seed=seed)
    vd = verify_count_identity(ab)
    assert vd.passed and vd.v == 16
    assert vd.m == m and vd.N == N


def test_verdict_budget_counts_lines(monkeypatch):
    """A verdict is refused by the lines its walks would close, not by
    its dimension.  This v = 14 row is one split block: its stable walk
    closes 201 lines, and its self-dual count pairs that walk's nodes
    where a walk over Q_E closed about 13,000 lines in several seconds.
    A budget of 1000 lets it verify with the pinned counts; below the
    stable walk's lines it is refused."""
    ab = rand_invariants(2, split3, 14, seed=0)
    monkeypatch.setenv("ORBITAL_BUDGET", "1000")
    vd = verify_count_identity(ab)
    assert vd.passed
    assert vd.m == [1, 1, 4, 7, 10, 13, 16, 19, 16, 13, 10, 7, 4, 1, 1]
    assert vd.N == 123
    monkeypatch.setenv("ORBITAL_BUDGET", "200")
    with pytest.raises(BudgetExceeded, match="lines") as exc:
        verify_count_identity(ab)
    assert exc.value.estimate > 200
