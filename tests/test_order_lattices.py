"""Order construction, finite quotients, and stable-lattice counting."""

import os
import subprocess
import sys

import numpy as np
import pytest

import orbitcount
from orbitcount.errors import (BudgetExceeded, NotStronglyRegular,
                               PrecisionExhausted, TargetUnreachable)
from orbitcount.gf import gf_by_order
from orbitcount.invariants import InvariantPair
from orbitcount.kspace import KSpace, batch_stable_mask, iter_rref_bases
from orbitcount.local_field import EElem, TruncSeries, field_desc
from orbitcount.order_lattices import (build_order, build_quotient,
                                       enumerate_stable_submodules,
                                       signed_sum, stable_submodules,
                                       torsion_dual, walk)
from orbitcount.verify import rand_invariants

inert3 = field_desc(3, "inert")
split3 = field_desc(3, "split")


def _pi_pair(desc, e, prec=None):
    b0 = EElem.from_real(desc, TruncSeries.pi_pow(desc.k, e, prec=prec))
    return InvariantPair([EElem.zero(desc, prec)], [b0], desc)


def _naive_m(Q):
    """Direct recount of stable subspaces, dimension by dimension."""
    sp = Q.space
    v = Q.v
    m = [0] * (v + 1)
    m[v] = 1
    for dim in range(1, v + 1):
        for W, piv in iter_rref_bases(sp, v, dim):
            ok = np.ones(len(W), dtype=bool)
            for M in Q.ops:
                ok &= batch_stable_mask(sp, W, piv, M)
            m[v - dim] += int(ok.sum())
    return m


def test_cyclic_chain_quotient():
    o = build_order(_pi_pair(inert3, 2, prec=10))
    assert o.val_delta == 2 and o.val_disc == 0
    Q = build_quotient(o, 10)
    assert Q.v == 2
    assert Q.dexps == [2]
    assert np.array_equal(Q.P_op, np.array([[0, 0], [1, 0]]))
    assert not Q.T_op.any()
    m = enumerate_stable_submodules(Q)
    assert m == [1, 1, 1]
    assert signed_sum(m, inert3) == 1
    assert signed_sum(m, split3) == 3


def test_two_dim_order_frozen():
    # a = (0, -pi^2), b = (1, 0): the order is O[jt]/((jt)^2 - d pi^2)
    pi2 = EElem.from_real(inert3, TruncSeries.pi_pow(inert3.k, 2, prec=12))
    ab = InvariantPair([EElem.zero(inert3, 12), -pi2],
                       [EElem.one(inert3, 12), EElem.zero(inert3, 12)],
                       inert3)
    o = build_order(ab)
    d = inert3.jsq
    assert o.G[0][0].coeff_at(0) == 1
    assert o.G[1][1].coeff_at(2) == d
    assert o.G[0][1].val() is None
    assert o.T[0][1].coeff_at(2) == d
    assert o.T[1][0].coeff_at(0) == 1
    Q = build_quotient(o, 12)
    assert Q.v == 2
    assert not Q.T_op.any()
    assert enumerate_stable_submodules(Q) == [1, 1, 1]


def test_not_strongly_regular_rejected():
    z = EElem.zero(inert3)
    with pytest.raises(NotStronglyRegular):
        build_order(InvariantPair([z], [z], inert3))


def test_quotient_needs_precision_beyond_length():
    o = build_order(_pi_pair(inert3, 4))
    with pytest.raises(PrecisionExhausted) as exc:
        build_quotient(o, 4)
    assert exc.value.needed > 4
    Q = build_quotient(o, exc.value.needed)
    assert Q.v == 4


def test_enumeration_budget():
    o = build_order(_pi_pair(inert3, 3))
    Q = build_quotient(o, 10)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_stable_submodules(Q, max_v=2)
    assert exc.value.estimate is not None


def test_node_budget_env(monkeypatch):
    monkeypatch.setenv("ORBITAL_BUDGET", "2")
    o = build_order(_pi_pair(inert3, 4))
    Q = build_quotient(o, 12)
    with pytest.raises(BudgetExceeded, match="nodes"):
        stable_submodules(Q)


def test_counts_match_naive_scan():
    for desc in (inert3, split3):
        for seed in range(6):
            for n in (1, 2):
                try:
                    ab = rand_invariants(n, desc, target_val_delta=seed % 4,
                                         seed=seed)
                except TargetUnreachable:
                    continue
                Q = build_quotient(build_order(ab), 10)
                m = enumerate_stable_submodules(Q)
                assert m == _naive_m(Q), (desc.ext, n, seed)
                assert m == m[::-1]
                assert m[0] == 1 and m[-1] == 1


@pytest.mark.parametrize("q", [3, 5, 9])
@pytest.mark.parametrize("blocks", [(3,), (2, 1), (2, 2)])
def test_walk_matches_rref_scan(q, blocks):
    # P is a nilpotent shift with the given Jordan blocks; the scan keeps
    # every echelon basis whose span P maps into itself
    sp = KSpace(gf_by_order(q))
    dim = sum(blocks)
    P = sp.zeros((dim, dim))
    at = 0
    for size in blocks:
        for i in range(size - 1):
            P[at + i + 1, at + i] = 1
        at += size
    found = [0] * (dim + 1)
    for S in walk(sp, dim, P, []):
        found[S.dim] += 1
    scanned = [sum(int(batch_stable_mask(sp, W, piv, P).sum())
                   for W, piv in iter_rref_bases(sp, dim, d))
               for d in range(dim + 1)]
    assert found == scanned


def test_torsion_duality_involution():
    ab = rand_invariants(2, inert3, target_val_delta=4, seed=9)
    Q = build_quotient(build_order(ab), 12)
    subs = stable_submodules(Q)
    assert len(subs) == sum(enumerate_stable_submodules(Q))
    for S in subs:
        dual = torsion_dual(Q, S)
        assert dual.dim == Q.v - S.dim
        back = torsion_dual(Q, dual)
        assert np.array_equal(back.basis_matrix(), S.basis_matrix())


def test_pairing_perfect_and_equivariant():
    ab = rand_invariants(2, split3, target_val_delta=3, seed=2)
    Q = build_quotient(build_order(ab), 10)
    sp = Q.space
    v = Q.v
    stacked = Q.pairing.reshape(v * v, v)
    assert sp.rank(stacked) == v
    for r in range(v):
        B = Q.pairing[r]
        assert np.array_equal(B, B.T)
        for M in Q.ops:
            assert np.array_equal(sp.matmul(M.T, B), sp.matmul(B, M))


def test_signed_sum_conventions():
    assert signed_sum([1, 2, 1], inert3) == 0
    assert signed_sum([1, 2, 1], split3) == 4
    assert signed_sum([1, 0, 1, 0, 1], inert3) == 3
    assert signed_sum([2], inert3) == 2


# -- invariants that python -O must not strip ------------------------

_INSTANCE = """
from orbitcount.errors import InvariantViolation
from orbitcount.linalg import mat_identity
from orbitcount.local_field import TruncSeries, field_desc
from orbitcount.order_lattices import (build_order, quotient_from_gram,
                                       stable_submodules)
from orbitcount.verify import rand_invariants

# Q = k^2 with P = 0, on which T acts through an irreducible quadratic
desc = field_desc(5, "inert")
order = build_order(rand_invariants(2, desc, 2, seed=0))
k = desc.k
zero, one = TruncSeries.zero(k, 10), TruncSeries.one(k, 10)
"""

# the identity as T_op: its one slice is all of Q, whose k-lines T moves
IDENTITY_AS_T = _INSTANCE + """
Q = quotient_from_gram(order.G, [mat_identity(2, zero, one), order.T], 10,
                       order.val_delta, desc)
try:
    stable_submodules(Q)
except InvariantViolation as exc:
    print("raised:", exc)
"""

# a projection onto one coordinate of the u-basis is integral (Q has
# equal Smith exponents) but does not commute with T
NON_COMMUTING = _INSTANCE + """
proj = [[one, zero], [zero, zero]]
try:
    quotient_from_gram(order.G, [order.T, proj], 10, order.val_delta, desc)
except InvariantViolation as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("script,message", [
    pytest.param(IDENTITY_AS_T, "does not generate", id="identity-as-T"),
    pytest.param(NON_COMMUTING, "do not commute", id="non-commuting"),
])
def test_invariant_checks_survive_optimize(flags, script, message):
    src = os.path.dirname(os.path.dirname(orbitcount.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("raised:") and message in proc.stdout, \
        proc.stdout

