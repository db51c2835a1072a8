"""End-to-end acceptance gate.

Each test settles one headline claim about the package on a large seeded
batch: the identity itself, its vanishing and bijection refinements,
closed forms on certified families, agreement with oracles that share no
code with the fast path, the group-version transport, precision
stability, and the structural invariants every built object must carry.
"""

from collections import Counter

import numpy as np

from conftest import (SWEEP_CONFIGS, SWEEP_COUNT, SWEEP_MAX_VAL,
                      base_precision, build_pipeline, regen_instance, row_m)
from orbitcount.errors import TargetUnreachable
from orbitcount.fqpoly import sqrt_mod
from orbitcount.group_ring import lie_transport
from orbitcount.hermitian import (_orthogonal_pairs, build_hermitian_quotient,
                                  selfdual_submodules)
from orbitcount.linalg import mat_mul, mat_transpose
from orbitcount.local_field import TruncSeries, field_desc
from orbitcount.order_lattices import (form_sheets, stable_submodules,
                                       torsion_dual)
from orbitcount.verify import (dvr_closed_form, matrix_orbit_oracle,
                               naive_subspace_oracle, rand_group_instance,
                               rand_invariants, rand_sn_matrix,
                               verify_count_identity, verify_group_identity)

# self-dual scans walk the O_E-submodules of Q_E ([v, v/2]_(q^2) inert,
# sum_a [v, a]_q [v, v - a]_q split), so the exhaustive recount stays
# affordable only up to this colength
NAIVE_SELFDUAL_MAX_V = 4


def test_sweep_identity_holds_everywhere(sweep_results):
    rows, elapsed = sweep_results
    assert set(rows) == set(SWEEP_CONFIGS)
    total = 0
    for cfg in SWEEP_CONFIGS:
        batch = rows[cfg]
        assert len(batch) >= 200, cfg
        assert all(r["pass"] for r in batch), cfg
        assert all(0 <= r["v"] <= SWEEP_MAX_VAL for r in batch), cfg
        total += len(batch)
    assert elapsed < 600
    print(f"identity holds on {total} rows across "
          f"{len(SWEEP_CONFIGS)} configurations in {elapsed:.1f}s")


def test_inert_odd_valuation_vanishes_twice(sweep_results):
    rows, _ = sweep_results
    hit = 0
    for (n, q, ext), batch in rows.items():
        if ext != "inert":
            continue
        for r in batch:
            if r["v"] % 2 == 1:
                assert r["eta_delta"] == -1
                assert r["signed_sum"] == 0
                assert r["N"] == 0
                hit += 1
    assert hit > 0
    print(f"both sides vanish on {hit} inert odd-valuation rows")


def test_split_sum_equals_selfdual_count(sweep_results):
    rows, _ = sweep_results
    hit = 0
    for (n, q, ext), batch in rows.items():
        if ext != "split":
            continue
        for r in batch:
            assert r["eta_delta"] == 1
            assert sum(row_m(r)) == r["N"] == r["signed_sum"]
            hit += 1
    assert hit == 5 * SWEEP_COUNT
    print(f"plain sum matches the self-dual count on {hit} split rows")


def test_dvr_families_match_closed_forms():
    checked = {"eisenstein": 0, "irreducible": 0}
    for q in (3, 5):
        desc = field_desc(q, "inert")
        for seed in range(12):
            for family in checked:
                try:
                    ab = rand_invariants(2, desc, seed=seed, family=family)
                except TargetUnreachable:
                    continue
                vd = verify_count_identity(ab)
                assert vd.passed
                if family == "eisenstein":
                    # totally ramified DVR: the lattice is a chain
                    assert vd.m == [1] * (vd.v + 1)
                    if vd.v % 2 == 0:
                        assert dvr_closed_form(vd.v, 1, desc) == 1
                        assert vd.signed_sum == vd.N == 1
                    else:
                        assert vd.signed_sum == 0 and vd.N == 0
                else:
                    # unramified DVR of residue degree 2: even steps only
                    assert vd.v % 2 == 0
                    want = dvr_closed_form(vd.v // 2, 2, desc)
                    assert want == vd.v // 2 + 1
                    assert vd.signed_sum == vd.N == want
                    assert all(vd.m[i] == (1 if i % 2 == 0 else 0)
                               for i in range(vd.v + 1))
                checked[family] += 1
    assert min(checked.values()) >= 20
    print(f"closed forms hold on {checked['eisenstein']} eisenstein and "
          f"{checked['irreducible']} irreducible instances")


def test_bucket_counts_are_palindromic(sweep_results):
    rows, _ = sweep_results
    total = 0
    for batch in rows.values():
        for r in batch:
            mm = row_m(r)
            assert mm == mm[::-1], r
            total += 1
    print(f"bucket palindrome holds on {total} rows")


def test_fast_counts_match_naive_and_matrix_oracles(sweep_results):
    rows, _ = sweep_results
    m_checks = n_checks = 0
    for cfg, batch in rows.items():
        firsts = {}
        for r in batch:
            firsts.setdefault(r["v"], r)
        for v, r in sorted(firsts.items()):
            _, Q, QE, _ = build_pipeline(regen_instance(r))
            assert naive_subspace_oracle(Q) == row_m(r), r
            m_checks += 1
            if v <= NAIVE_SELFDUAL_MAX_V:
                assert naive_subspace_oracle(QE) == r["N"], r
                n_checks += 1

    mat_checks = 0
    for q in (3, 5):
        for ext in ("inert", "split"):
            desc = field_desc(q, ext)
            for seed in range(6):
                matrix_orbit_oracle(rand_sn_matrix(2, desc, seed=seed))
                mat_checks += 1
    for seed in (1, 5):
        A = rand_sn_matrix(3, field_desc(5, "inert"), seed=seed,
                           max_val_delta=2)
        matrix_orbit_oracle(A)
        mat_checks += 1

    assert m_checks >= 60
    assert n_checks >= 50
    assert mat_checks >= 20
    print(f"oracles agree: {m_checks} submodule scans, {n_checks} self-dual "
          f"scans, {mat_checks} matrix lattice scans")


def test_factored_counts_match_whole_space_walk(sweep_results):
    # a quotient with one factor of T is its own block, so only quotients
    # with two or more take another path than one walk over Q for m.
    # For N no quotient walks Q_E whole: the count walks the doubles of
    # the blocks where j^2 is not a square and pairs the stable
    # submodules of the others (test_square_block_pairs_match_double_walk)
    rows, _ = sweep_results
    checked = 0
    for batch in rows.values():
        for r in batch:
            _, Q, QE, _ = build_pipeline(regen_instance(r))
            if len(Q.factors) < 2:
                continue
            whole = [0] * (Q.v + 1)
            for S in stable_submodules(Q):
                whole[Q.v - S.dim] += 1
            assert whole == row_m(r), r
            assert len(selfdual_submodules(QE)) == r["N"], r
            checked += 1
    assert checked >= 400
    print(f"factored counts equal the whole-space walk on {checked} "
          f"multi-factor instances")


def _check_square_blocks(Q, seen):
    """On every block of Q where j^2 is a square modulo its factor, the
    pair count equals the walk over the block's double; tallies the
    blocks checked by kind."""
    desc = Q.desc
    for B in Q.blocks:
        g = B.factors[0] if B.factors else None
        if g is not None and sqrt_mod(desc.jsq, g, B.space.k) is None:
            continue
        QE = build_hermitian_quotient(None, desc, None, fq=B)
        assert _orthogonal_pairs(B) == len(selfdual_submodules(QE))
        if g is None:
            seen["empty"] += 1
        elif desc.is_split:
            seen["split"] += 1
        else:
            seen[f"inert f={len(g) - 1}"] += 1


def test_square_block_pairs_match_double_walk(sweep_results):
    rows, _ = sweep_results
    seen = Counter()
    for batch in rows.values():
        for r in batch:
            _check_square_blocks(build_pipeline(regen_instance(r))[1], seen)
    sweep_seen = dict(seen)
    for q in (3, 5, 9):
        for ext in ("inert", "split"):
            desc = field_desc(q, ext)
            for seed in range(4):
                for n in (1, 2):
                    gv = verify_group_identity(
                        rand_group_instance(n, desc, seed=seed))
                    _check_square_blocks(gv.quotient, seen)
                if q != 9:
                    continue
                for v in range(5):
                    try:
                        ab = rand_invariants(2, desc, v, seed=seed)
                    except TargetUnreachable:
                        continue
                    _check_square_blocks(
                        verify_count_identity(ab).quotient, seen)
    assert sweep_seen["split"] >= 1000 and sweep_seen["inert f=2"] >= 100
    assert seen["split"] > sweep_seen["split"]
    assert seen["inert f=2"] > sweep_seen["inert f=2"]
    print(f"pair counts equal the double's walk on square blocks: "
          f"{sweep_seen} in the sweep, {dict(seen)} with group and q = 9 rows")


def test_group_counts_match_lie_transport():
    checked = 0
    for q in (3, 5):
        for ext in ("inert", "split"):
            desc = field_desc(q, ext)
            for seed in range(3):
                for n in (1, 2):
                    ab = rand_group_instance(n, desc, seed=seed)
                    gv = verify_group_identity(ab)
                    assert gv.passed
                    lv = verify_count_identity(lie_transport(gv.order))
                    assert (lv.m, lv.N, lv.v) == (gv.m, gv.N, gv.v)
                    checked += 1
    assert checked >= 20
    print(f"transport agrees on {checked} group instances")


def test_counts_stable_under_extra_precision(sweep_results):
    rows, _ = sweep_results
    total = 0
    for batch in rows.values():
        for r in batch:
            ab = regen_instance(r)
            P = base_precision(r["n"], r["v"])
            for dp in (1, 2, 3):
                redo = verify_count_identity(ab, precision=P + dp)
                assert redo.m == row_m(r), r
                assert redo.N == r["N"], r
            total += 1
    print(f"counts unchanged at +1..+3 precision on {total} instances")


def _structure_violations(r):
    bad = []
    ab = regen_instance(r)
    desc = ab.desc
    order, Q, QE, P = build_pipeline(ab)
    sz = TruncSeries.zero(desc.k, P)

    n = ab.n
    for i in range(n):
        for j in range(n):
            if not order.G[i][j].agrees_with(order.G[j][i]):
                bad.append("gram not symmetric")
    GT = mat_mul(order.G, order.T, sz)
    TtG = mat_mul(mat_transpose(order.T), order.G, sz)
    for i in range(n):
        for j in range(n):
            if not GT[i][j].agrees_with(TtG[i][j]):
                bad.append("generator not self-adjoint")

    sp = Q.space
    v = Q.v
    if v:
        # every sheet t < v, derived from the stored one as B P^t
        sheets = form_sheets(sp, Q.pairing, Q.P_op, v)
        if sp.rank(np.concatenate(sheets)) != v:
            bad.append("pairing not perfect")
        for B in sheets:
            if not np.array_equal(B, B.T):
                bad.append("pairing sheet not symmetric")
            for M in Q.ops:
                if not np.array_equal(sp.matmul(M.T, B), sp.matmul(B, M)):
                    bad.append("pairing not equivariant")

    if v and sum(row_m(r)) <= 200:
        for S in stable_submodules(Q):
            dual = torsion_dual(Q, S)
            if dual.dim != v - S.dim:
                bad.append("dual dimension off")
            back = torsion_dual(Q, dual)
            if not np.array_equal(back.basis_matrix(), S.basis_matrix()):
                bad.append("duality not involutive")

    spe = QE.space
    d = desc.jsq
    J = QE.J_op
    eyed = spe.mul(spe.arr(np.eye(QE.dim, dtype=np.int64)), d)
    if not np.array_equal(spe.matmul(J, J), eyed):
        bad.append("J squared wrong")
    for Hre, Him in zip(form_sheets(spe, QE.herm_re, QE.P_op, QE.v),
                        form_sheets(spe, QE.herm_im, QE.P_op, QE.v)):
        if not np.array_equal(Hre, Hre.T):
            bad.append("re sheet not symmetric")
        if not np.array_equal(Him, spe.neg(Him.T)):
            bad.append("im sheet not antisymmetric")
        if not np.array_equal(spe.matmul(J.T, Hre), spe.mul(Him, d)):
            bad.append("J adjoint re sheet")
        if not np.array_equal(spe.matmul(J.T, Him), Hre):
            bad.append("J adjoint im sheet")
        for M in QE.ops[:-1]:
            if not (np.array_equal(spe.matmul(M.T, Hre), spe.matmul(Hre, M))
                    and np.array_equal(spe.matmul(M.T, Him),
                                       spe.matmul(Him, M))):
                bad.append("lifted op not self-adjoint")
    return bad


def test_structural_invariants_zero_violations(sweep_results):
    rows, _ = sweep_results
    violations = []
    checked = 0
    for cfg, batch in rows.items():
        firsts = {}
        for r in batch:
            firsts.setdefault(r["v"], r)
        for v, r in sorted(firsts.items()):
            got = _structure_violations(r)
            if got:
                violations.append((cfg, v, sorted(set(got))))
            checked += 1
    assert violations == []
    print(f"no structural violations across {checked} stratified instances")
