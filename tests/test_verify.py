"""Driver-level checks: verdicts, closed forms, samplers, oracles."""

import json
import os
import subprocess
import sys

import pytest

import orbitcount
from orbitcount.errors import BudgetExceeded, SchemaError, TargetUnreachable
from orbitcount.hermitian import build_hermitian_quotient, split_factor_check
from orbitcount.invariants import InvariantPair, invariants_of, strong_regularity
from orbitcount.local_field import EElem, TruncSeries, field_desc
from orbitcount.order_lattices import (build_order, build_quotient,
                                       enumerate_stable_submodules)
from orbitcount.verify import (_norm_one_constants, dvr_closed_form,
                               instance_from_obj, instance_to_obj,
                               matrix_orbit_oracle, naive_subspace_oracle,
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
    with pytest.raises(AssertionError, match="even length"):
        dvr_closed_form(3, 1, inert3)


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

    # parity violations surface on the lie-mode re-validation
    unvalidated = instance_to_obj(InvariantPair(
        [EElem.one(inert3)], [EElem.one(inert3)], inert3))
    with pytest.raises(SchemaError, match=r"a\[1\]"):
        instance_from_obj(unvalidated)


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


def test_naive_oracle_small_agreement():
    Q = build_quotient(build_order(_pi_pair(inert3, 2)), 12)
    assert naive_subspace_oracle(Q) == enumerate_stable_submodules(Q)


def test_naive_oracle_budget(monkeypatch):
    monkeypatch.setenv("ORBITAL_BUDGET", "10")
    Q = build_quotient(build_order(_pi_pair(inert3, 4)), 12)
    with pytest.raises(BudgetExceeded) as exc:
        naive_subspace_oracle(Q)
    assert exc.value.estimate == 212


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
import orbitcount.verify as verify
from orbitcount.errors import InvariantViolation
from orbitcount.local_field import field_desc
real = verify.enumerate_stable_submodules
verify.enumerate_stable_submodules = (
    lambda Q, max_v: [c + 1 for c in real(Q, max_v=max_v)])
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
@pytest.mark.parametrize("n,q,ext,v,seed,m,N", [
    (4, 5, "inert", 4, 2, [1, 0, 0, 0, 1], 2),
    (2, 9, "split", 6, 700022, [1, 0, 1, 0, 1, 0, 1], 4),
    (2, 9, "inert", 6, 700022, [1, 0, 1, 0, 1, 0, 1], 4),
])
def test_slow_line_walk_rows(n, q, ext, v, seed, m, N):
    desc = field_desc(q, ext)
    ab = rand_invariants(n, desc, v, seed=seed)
    vd = verify_count_identity(ab)
    assert vd.passed and vd.v == v
    assert vd.m == m and vd.N == N
    if desc.is_split:
        order = build_order(ab)
        Q = build_quotient(order, vd.precision)
        QE = build_hermitian_quotient(order, desc, vd.precision, fq=Q)
        assert split_factor_check(Q, QE)
