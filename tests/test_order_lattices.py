"""Order construction, finite quotients, and stable-lattice counting."""

import os
import subprocess
import sys

import numpy as np
import pytest

import orbitcount
from orbitcount import order_lattices
from orbitcount.errors import (BudgetExceeded, NotStronglyRegular,
                               PrecisionExhausted, TargetUnreachable)
from orbitcount.gf import gf_by_order
from orbitcount.hermitian import build_hermitian_quotient, count_selfdual
from orbitcount.invariants import (InvariantPair, _recurrence,
                                  strong_regularity)
from orbitcount.kspace import (EchelonBasis, KSpace, batch_stable_mask,
                               iter_rref_bases)
from orbitcount.linalg import (mat_det, mat_mul, mat_transpose,
                               smith_normal_form)
from orbitcount.local_field import (EElem, TruncSeries, field_desc,
                                    imaginary_unit)
from orbitcount.order_lattices import (_mat_pow, _poly_apply, build_order,
                                       build_quotient,
                                       enumerate_stable_submodules,
                                       form_sheets, signed_sum,
                                       stable_submodules, torsion_dual, walk)
from orbitcount.verify import (rand_group_instance, rand_invariants,
                               verify_count_identity, verify_group_identity)

inert3 = field_desc(3, "inert")
split3 = field_desc(3, "split")


def _pi_pair(desc, e, prec=None):
    b0 = EElem.from_real(desc, TruncSeries.pi_pow(desc.k, e))
    ab = InvariantPair([EElem.zero(desc)], [b0], desc)
    return ab if prec is None else ab.truncated(prec)


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
    ab = _pi_pair(inert3, 2, prec=10)
    assert strong_regularity(ab).val_disc == 0
    o = build_order(ab)
    assert o.val_delta == 2
    Q = build_quotient(o, 10)
    assert Q.v == 2
    assert smith_normal_form(o.G, 10)[3] == [2]
    assert np.array_equal(Q.P_op, np.array([[0, 0], [1, 0]]))
    assert not Q.T_op.any()
    m = enumerate_stable_submodules(Q)
    assert Q.blocks == [Q]
    assert m == [1, 1, 1]
    assert signed_sum(m, inert3) == 1
    assert signed_sum(m, split3) == 3


def test_two_dim_order_frozen():
    # a = (0, -pi^2), b = (1, 0): the order is O[jt]/((jt)^2 - d pi^2)
    pi2 = EElem.from_real(inert3, TruncSeries.pi_pow(inert3.k, 2))
    ab = InvariantPair([EElem.zero(inert3), -pi2],
                       [EElem.one(inert3), EElem.zero(inert3)],
                       inert3).truncated(12)
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


@pytest.mark.parametrize("ext", ["split", "inert"])
def test_order_matches_e_forms(ext):
    """G and T from the real forms against the E products they replace:
    G_(il) = j^(i+l) b'(t^(i+l)) and row n - i of T's last column
    (-1)^(i+1) j^i a_i, and det G = d^(n(n-1)/2) Delta with Delta over E,
    exact and truncated, p <= n included."""
    for q in (3, 5):
        desc = field_desc(q, ext)
        k = desc.k
        j = imaginary_unit(desc)
        jp = [EElem.one(desc)]
        for _ in range(8):
            jp.append(jp[-1] * j)
        for n in (1, 2, 3, 4):
            for seed in range(3):
                ab = rand_invariants(n, desc, seed=seed)
                for cut in (ab, ab.truncated(2 * n + 4)):
                    order = build_order(cut)
                    s = _recurrence(cut.a, cut.b, 2 * n - 1, EElem.zero(desc))
                    for i in range(n):
                        for l in range(n):
                            x = jp[i + l] * s[i + l]
                            assert x.im.is_zero()
                            assert order.G[i][l].agrees_with(x.re)
                    for i in range(1, n + 1):
                        x = jp[i] * cut.a[i - 1]
                        x = x if i % 2 else -x
                        assert order.T[n - i][n - 1].agrees_with(x.re)
                    zero, one = EElem.zero(desc), EElem.one(desc)
                    delta = mat_det([[s[i + l] for l in range(n)]
                                     for i in range(n)], zero, one)
                    detG = mat_det(order.G, TruncSeries.zero(k),
                                   TruncSeries.one(k))
                    dpow = k.pow(desc.jsq, n * (n - 1) // 2)
                    assert detG.agrees_with(delta.re.scaled(dpow))
                    assert detG.val() == delta.val() == order.val_delta


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


def test_enumeration_budget(monkeypatch):
    """The walk counts a step's candidate lines before it builds them
    and refuses the step that would take the total past ORBITAL_BUDGET,
    so no line past the budget is built or closed.  On F_3^3 with no
    operators the steps from 0, from a line and from a plane have 13, 4
    and 1 lines: 13 + 13 * 4 + 13 * 1 = 78 in all, for 28 subspaces."""
    space = KSpace(gf_by_order(3))
    zero = space.zeros((3, 3))
    built, closed = [], []
    real_tuples = order_lattices._projective_tuples
    real_key = EchelonBasis.key

    def tuples(c, q, e=1):
        built.append((q ** (e * c) - 1) // (q ** e - 1))
        return real_tuples(c, q, e)

    def key(self):
        closed.append(self.dim)
        return real_key(self)

    monkeypatch.setattr(order_lattices, "_projective_tuples", tuples)
    monkeypatch.setattr(EchelonBasis, "key", key)
    # each line shape is built once per walk and reused
    for budget, estimate, shapes in ((12, 13, []), (13, 17, [13]),
                                     (20, 21, [13, 4]), (77, 78, [13, 4, 1])):
        monkeypatch.setenv("ORBITAL_BUDGET", str(budget))
        built.clear()
        closed.clear()
        with pytest.raises(BudgetExceeded, match="lines") as exc:
            walk(space, 3, zero, [])
        assert exc.value.estimate == estimate
        assert built == shapes
        # key is taken once of the zero seed and once per closed line
        assert closed[0] == 0 and len(closed) - 1 <= budget
    monkeypatch.setenv("ORBITAL_BUDGET", "78")
    assert len(walk(space, 3, zero, [])) == 28


def test_node_budget_env(monkeypatch):
    monkeypatch.setenv("ORBITAL_BUDGET", "2")
    o = build_order(_pi_pair(inert3, 4))
    Q = build_quotient(o, 12)
    with pytest.raises(BudgetExceeded, match="lines") as exc:
        stable_submodules(Q)
    assert exc.value.estimate == 3


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


def test_blocks_built_on_first_use():
    ab = rand_invariants(2, field_desc(5, "split"), 2, seed=3)
    order = build_order(ab)
    Q = build_quotient(order, 10)
    QE = build_hermitian_quotient(order, ab.desc, 10, fq=Q)
    assert Q._factors is Q._slices is Q._blocks is None
    assert QE._slices is None
    assert enumerate_stable_submodules(Q) == [1, 2, 1]
    assert count_selfdual(Q) == 4
    assert [B.v for B in Q.blocks] == [1, 1]
    assert QE._slices is None


def test_slices_built_only_where_a_walk_reads_them(monkeypatch):
    # T has two linear residual factors: a verdict walks each block with
    # the block's own slice and never reads Q's, while the whole-Q
    # lister does
    calls = [0]
    real = order_lattices._factor_slice

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(order_lattices, "_factor_slice", counted)
    ab = rand_invariants(2, field_desc(5, "split"), 2, seed=3)
    verdict = verify_count_identity(ab)
    Q = verdict.quotient
    assert (verdict.m, verdict.N) == ([1, 2, 1], 4)
    assert len(Q.factors) == 2 and Q._slices is None
    assert calls[0] == 2
    assert len(stable_submodules(Q)) == 4
    assert Q._slices is not None and calls[0] == 4


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
    assert Q.pairing.shape == (v, v)
    sheets = form_sheets(sp, Q.pairing, Q.P_op, v)
    assert sp.rank(Q.pairing) == sp.rank(np.concatenate(sheets)) == v
    for B in sheets:
        assert np.array_equal(B, B.T)
        for M in Q.ops:
            assert np.array_equal(sp.matmul(M.T, B), sp.matmul(B, M))


def _smith_sheets(G, N, k):
    """Every sheet of the torsion form, r = 1..v, read off the principal
    parts of U^-t V D^-1 for the Smith form U G V = D, as the quotient
    once stored them all: the reference for the one stored sheet."""
    n = len(G)
    U, Uinv, V, dexps = smith_normal_form(G, N)
    v = sum(dexps)
    gens = [(i, e) for i in range(n) for e in range(dexps[i])]
    zero = TruncSeries.zero(k, N)
    Pi = mat_mul(mat_transpose(Uinv), V, zero)
    sheets = np.zeros((v, v, v), dtype=np.int64)
    for x, (i, e) in enumerate(gens):
        for y, (j, f) in enumerate(gens):
            part = Pi[i][j].shifted(-dexps[j])
            for r in range(1, v + 1):
                sheets[r - 1, x, y] = part.coeff_at(-r - e - f)
    return sheets


def _stacked_dual(space, sheets, S):
    """Orthogonal complement of S under every sheet at once."""
    basis = S.basis_matrix()
    rows = [space.matmul(basis, H) for H in sheets]
    eb = EchelonBasis(space, S.n)
    for w in space.right_nullspace(np.concatenate(rows)):
        eb.insert(w)
    return eb


@pytest.mark.parametrize("mode,n,q,ext,v,seed", [
    # two blocks each: two linear factors, and factors of degree 1 and 2
    ("lie", 2, 3, "split", 3, 0), ("lie", 2, 5, "split", 2, 3),
    ("lie", 3, 3, "split", 3, 6),
    # q = 9: kspace's prime-power path, one block and two
    ("lie", 2, 9, "inert", 2, 0), ("lie", 2, 9, "split", 2, 0),
    # factors of degree 1 and 2, and one deeper single block
    ("lie", 3, 5, "inert", 3, 0), ("lie", 2, 3, "inert", 6, 700022),
    # group quotients: two blocks each at q = 3, 5; v = 1 at q = 9
    ("group", 2, 3, "inert", None, 5), ("group", 2, 5, "inert", None, 13),
    ("group", 2, 9, "split", None, 5), ("group", 1, 9, "inert", None, 1),
])
def test_stored_sheet_gives_every_smith_sheet(mode, n, q, ext, v, seed):
    """Sheet r of the Smith construction is B P^(r-1) for the stored B,
    on Q and, carried through the change of basis, on each block; and
    for every stable S the dual from B is the dual under every sheet."""
    desc = field_desc(q, ext)
    if mode == "lie":
        vd = verify_count_identity(rand_invariants(n, desc, v, seed=seed))
    else:
        vd = verify_group_identity(rand_group_instance(n, desc, seed=seed))
    Q, sp = vd.quotient, vd.quotient.space
    want = _smith_sheets(vd.order.G, vd.precision, desc.k)
    assert want.shape == (Q.v, Q.v, Q.v)
    got = form_sheets(sp, Q.pairing, Q.P_op, Q.v)
    assert all(np.array_equal(H, W) for H, W in zip(got, want))
    assert sp.rank(want.reshape(-1, Q.v)) == sp.rank(Q.pairing) == Q.v
    for S in stable_submodules(Q):
        assert torsion_dual(Q, S).key() == _stacked_dual(sp, want, S).key()
    # block g sits on the kernel of g(T)^v, in the basis the blocks use
    for g, B in zip(Q.factors, Q.blocks):
        K = sp.right_nullspace(_mat_pow(sp, _poly_apply(sp, g, Q.T_op), Q.v))
        assert len(K) == B.v
        sheets = form_sheets(sp, B.pairing, B.P_op, Q.v)
        for H, W in zip(sheets, want):
            assert np.array_equal(H, sp.matmul(sp.matmul(K, W), K.T))
        for S in stable_submodules(B):
            assert torsion_dual(B, S).key() == _stacked_dual(
                sp, sheets[:B.v], S).key()


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

# alpha_1 moved by 1, G kept: G T - (G T)^t gains r_1 (a nonzero moment
# of this pair) off the diagonal, so T is no longer self-adjoint for G
NOT_SELF_ADJOINT = _INSTANCE + """
import orbitcount.order_lattices as ol
real = ol.strong_regularity

def skewed(ab):
    report = real(ab)
    report.alpha = [report.alpha[0] + TruncSeries.one(k)] + report.alpha[1:]
    return report

ol.strong_regularity = skewed
try:
    build_order(rand_invariants(2, desc, 2, seed=0))
except InvariantViolation as exc:
    print("raised:", exc)
"""

# the projection alone as the module generator: P = 0 commutes with it,
# but it is not self-adjoint for the torsion pairing
NOT_EQUIVARIANT = _INSTANCE + """
proj = [[one, zero], [zero, zero]]
try:
    quotient_from_gram(order.G, [proj], 10, order.val_delta, desc)
except InvariantViolation as exc:
    print("raised:", exc)
"""


# Q = k^2 where T has the two linear factors x and x - 4, so the count
# splits Q into two blocks of dimension 1; the quotients below are
# assembled by hand, past quotient_from_gram's commutation check, with
# an extra op or a pairing sheet that carries one block into the other
_TWO_BLOCKS = """
from orbitcount.errors import InvariantViolation
from orbitcount.local_field import field_desc
from orbitcount.order_lattices import (FiniteQuotient, build_order,
                                       build_quotient,
                                       enumerate_stable_submodules)
from orbitcount.verify import rand_invariants

ab = rand_invariants(2, field_desc(5, "split"), 2, seed=3)
Q = build_quotient(build_order(ab), 10)
if Q.factors != [[0, 1], [1, 1]]:
    raise SystemExit(f"expected two linear factors, got {Q.factors}")
mix = Q.space.arr([[0, 1], [0, 0]])
ops, pairing = list(Q.ops), Q.pairing.copy()
"""

_COUNT_BAD = """
bad = FiniteQuotient(Q.v, Q.space, Q.P_op, Q.T_op, ops, pairing, Q.desc)
try:
    enumerate_stable_submodules(bad)
except InvariantViolation as exc:
    print("raised:", exc)
"""

MIXING_OP = _TWO_BLOCKS + "ops.append(mix)" + _COUNT_BAD
MIXING_SHEET = _TWO_BLOCKS + "pairing = mix + mix.T" + _COUNT_BAD

# the same extra op, lifted to Q_E: its Hermitian form is diagonal over
# the blocks, so an op carrying one block into the other breaks it
HERMITIAN_NOT_EQUIVARIANT = _TWO_BLOCKS + """
from orbitcount.hermitian import build_hermitian_quotient
bad = FiniteQuotient(Q.v, Q.space, Q.P_op, Q.T_op, ops + [mix], pairing,
                     Q.desc)
try:
    build_hermitian_quotient(None, Q.desc, None, fq=bad)
except InvariantViolation as exc:
    print("raised:", exc)
"""

# one added to the first w-coordinate of every product w_i w_r: the
# multiplication matrices move while G does not, so G M is no longer
# symmetric
GROUP_NOT_SELF_ADJOINT = """
from orbitcount.errors import InvariantViolation
from orbitcount.local_field import TruncSeries, field_desc
from orbitcount.verify import rand_group_instance
import orbitcount.group_ring as gr

real = gr._fixed_coords

def shifted(poly, U, desc, N):
    y = real(poly, U, desc, N)
    return [y[0] + TruncSeries.one(desc.k, N)] + y[1:]

ab = rand_group_instance(2, field_desc(3, "inert"), seed=1)
gr._fixed_coords = shifted
try:
    gr.build_group_order(ab, 10)
except InvariantViolation as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("script,message", [
    pytest.param(IDENTITY_AS_T, "does not generate", id="identity-as-T"),
    pytest.param(NON_COMMUTING, "do not commute", id="non-commuting"),
    pytest.param(NOT_SELF_ADJOINT, "T is not self-adjoint",
                 id="not-self-adjoint"),
    pytest.param(NOT_EQUIVARIANT, "torsion pairing is not equivariant",
                 id="not-equivariant"),
    pytest.param(HERMITIAN_NOT_EQUIVARIANT,
                 "Hermitian form is not equivariant",
                 id="hermitian-not-equivariant"),
    pytest.param(MIXING_OP, "not block-diagonal", id="mixing-op"),
    pytest.param(MIXING_SHEET, "not block-diagonal", id="mixing-sheet"),
    pytest.param(GROUP_NOT_SELF_ADJOINT,
                 "multiplication is not self-adjoint for the Gram pairing",
                 id="group-not-self-adjoint"),
])
def test_invariant_checks_survive_optimize(flags, script, message):
    src = os.path.dirname(os.path.dirname(orbitcount.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("raised:") and message in proc.stdout, \
        proc.stdout

