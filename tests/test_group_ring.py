"""Multiplicative orders: constraints, counting, and the transport map."""

import json
import os
import random
import subprocess
import sys

import pytest

import orbitcount
from orbitcount import group_ring
from orbitcount.errors import (GeneratorNotFound, GroupConstraintViolated,
                               NotStronglyRegular, SchemaError)
from orbitcount.group_ring import build_group_order, lie_transport
from orbitcount.hermitian import build_hermitian_quotient, selfdual_submodules
from orbitcount.invariants import InvariantPair
from orbitcount.local_field import (EElem, TruncSeries, field_desc,
                                    imaginary_unit)
from orbitcount.order_lattices import stable_submodules
from orbitcount.verify import (_norm_one_constants, auto_precision,
                               instance_from_obj, instance_to_obj,
                               oracle_checks, rand_group_instance,
                               verify_count_identity, verify_group_identity)

inert3 = field_desc(3, "inert")
split3 = field_desc(3, "split")


def test_norm_one_constants():
    # the norm-1 torus has q+1 constant points inert and q-1 split
    for desc, want in ((inert3, 4), (split3, 2),
                       (field_desc(5, "inert"), 6), (field_desc(5, "split"), 4)):
        gammas = _norm_one_constants(desc)
        assert len(gammas) == want
        one = EElem.one(desc)
        for g in gammas:
            assert (g * g.sigma()).agrees_with(one)
        assert len({(x.re.coeff_at(0), x.im.coeff_at(0)) for x in gammas}) == want


@pytest.mark.parametrize("desc", [inert3, split3])
def test_chain_orders(desc):
    k = desc.k
    g = _norm_one_constants(desc)[1]
    for e in range(4):
        b0 = EElem.from_real(desc, TruncSeries.pi_pow(k, e))
        ab = InvariantPair([g], [b0], desc)
        gv = verify_group_identity(ab)
        assert gv.v == e and gv.m == [1] * (e + 1)
        if desc.is_split:
            assert gv.N == e + 1
        else:
            assert gv.N == (1 if e % 2 == 0 else 0)
        vd = verify_count_identity(lie_transport(gv.order))
        assert (vd.m, vd.N, vd.v) == (gv.m, gv.N, e)


def test_transport_agreement_sampled():
    for desc in (inert3, split3, field_desc(5, "inert")):
        for seed in range(3):
            for n in (1, 2):
                ab = rand_group_instance(n, desc, seed=seed)
                gv = verify_group_identity(ab)
                vd = verify_count_identity(lie_transport(gv.order))
                assert (vd.m, vd.N, vd.v) == (gv.m, gv.N, gv.v)


@pytest.mark.parametrize("q,seed,m", [(3, 5, [1, 2, 2, 1]),
                                       (3, 17, [1, 2, 1]),
                                       (5, 13, [1, 2, 1])])
def test_two_factor_group_instance(q, seed, m):
    # T has two linear residual factors, so the counts walk two blocks;
    # the whole-space listers and the Lie transport agree
    desc = field_desc(q, "inert")
    gv = verify_group_identity(rand_group_instance(2, desc, seed=seed))
    Q = gv.quotient
    assert [len(g) - 1 for g in Q.factors] == [1, 1]
    whole = [0] * (Q.v + 1)
    for S in stable_submodules(Q):
        whole[Q.v - S.dim] += 1
    QE = build_hermitian_quotient(None, desc, None, fq=Q)
    assert gv.m == whole == m
    assert gv.N == len(selfdual_submodules(QE)) == 0
    lv = verify_count_identity(lie_transport(gv.order))
    assert (lv.m, lv.N) == (gv.m, gv.N)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_deep_chain_orders_escalate(q):
    # val Delta = e >= 2n + 4 = 6: det G is 0 modulo the default
    # precision, so the verdict escalates as for disc(P_a) and Delta
    for ext in ("split", "inert"):
        desc = field_desc(q, ext)
        for g in _norm_one_constants(desc)[:3]:
            for e in range(6, 10):
                b0 = EElem.from_real(desc, TruncSeries.pi_pow(desc.k, e))
                ab = InvariantPair([g], [b0], desc)
                gv = verify_group_identity(ab)
                assert gv.v == e and gv.passed
                assert gv.precision > auto_precision(1)
                ok, lines = oracle_checks(ab, "group")
                assert ok, lines


def test_deep_two_dim_group_pair_escalates():
    # the sampler's construction with g = -1, x = 1 + pi + j pi,
    # u = j pi^2 and b_0 = pi^5 gives a = (2 j pi, -1), b = (pi^5, j pi^6)
    # at v = 10 >= 2n + 4
    desc = inert3
    k = desc.k

    def pi_pow(e):
        return EElem.from_real(desc, TruncSeries.pi_pow(k, e))

    j = imaginary_unit(desc)
    g = -EElem.one(desc)
    x = pi_pow(0) + pi_pow(1) + j * pi_pow(1)
    u = j * pi_pow(2)
    b0 = pi_pow(5)
    a1 = x + g * x.sigma()
    inv2 = EElem.from_real(desc, TruncSeries.const(k, k.inv[2]))
    b1 = a1 * b0 * inv2 + (u - g * u.sigma())
    ab = InvariantPair([a1, g], [b0, b1], desc)
    gv = verify_group_identity(ab)
    assert (gv.v, gv.N, gv.precision) == (10, 0, 16)
    assert gv.m == [1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1]
    ok, lines = oracle_checks(ab, "group")
    assert ok, lines


def test_rejects_nonunit_leading_coefficient():
    pi = EElem.from_real(inert3, TruncSeries.pi_pow(inert3.k, 1))
    one = EElem.one(inert3)
    with pytest.raises(GroupConstraintViolated, match="unit"):
        build_group_order(InvariantPair([pi], [one], inert3), 8)


def test_rejects_norm_not_one():
    one = EElem.one(inert3)
    pi = EElem.from_real(inert3, TruncSeries.pi_pow(inert3.k, 1))
    with pytest.raises(GroupConstraintViolated, match="Nm"):
        build_group_order(InvariantPair([one + pi], [one], inert3), 8)


def test_rejects_theta_unstable_coefficients():
    g = _norm_one_constants(inert3)[1]
    one = EElem.one(inert3)
    zero = EElem.zero(inert3)
    bad_a1 = imaginary_unit(inert3)
    assert not (g * bad_a1.sigma()).agrees_with(bad_a1)
    with pytest.raises(GroupConstraintViolated, match="theta"):
        build_group_order(InvariantPair([bad_a1, g], [one, zero], inert3), 8)


def test_rejects_incompatible_moments():
    g = _norm_one_constants(inert3)[1]
    j = imaginary_unit(inert3)
    with pytest.raises(GroupConstraintViolated, match="b incompatible"):
        build_group_order(InvariantPair([g], [j], inert3), 8)


def test_rejects_repeated_roots():
    one = EElem.one(inert3)
    g0 = _norm_one_constants(inert3)[0]
    assert not g0.agrees_with(one)
    a = [g0 + g0, g0 * g0]
    with pytest.raises(NotStronglyRegular, match="disc"):
        build_group_order(InvariantPair(a, [one, EElem.zero(inert3)], inert3), 8)


def test_rejects_nonintegral_entries():
    g = _norm_one_constants(inert3)[1]
    bad = EElem.from_real(inert3, TruncSeries.pi_pow(inert3.k, -1))
    ab = InvariantPair([g], [bad], inert3)
    # the order build and the instance parser share one check
    with pytest.raises(SchemaError, match=r"b\[0\]: integrality"):
        build_group_order(ab, 8)
    with pytest.raises(SchemaError, match=r"b\[0\]: integrality"):
        instance_from_obj(instance_to_obj(ab, mode="group"))


def _series_obj(x):
    if isinstance(x, EElem):
        return [_series_obj(x.re), _series_obj(x.im)]
    return [x.shift, list(x.coeffs), x.prec]


def test_group_orders_pinned():
    """gen_poly, T and gen_powers of sampled group orders at
    auto_precision, recorded when the generator search multiplied every
    candidate out as a polynomial in t.  A series is (shift, coeffs,
    prec); an element of E is its (re, im) pair."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        "group_orders.json")
    with open(path) as fh:
        pinned = json.load(fh)
    assert len(pinned) == 96
    for rec in pinned:
        n, q, ext, seed = rec["case"]
        order = build_group_order(
            rand_group_instance(n, field_desc(q, ext), seed=seed),
            auto_precision(n))
        got = {"gen_poly": [_series_obj(c) for c in order.gen_poly],
               "T": [[_series_obj(c) for c in row] for row in order.T],
               "gen_powers": [[_series_obj(c) for c in row]
                              for row in order.gen_powers]}
        assert got == {key: rec[key] for key in got}, rec["case"]


@pytest.mark.parametrize("n,tries", [(1, 65), (2, 69)])
def test_generator_search_order_and_cap(monkeypatch, n, tries):
    # no candidate's power matrix has a unit determinant: the search
    # tries the theta-average of jt (n >= 2), the basis, the pairs
    # w_0 + c w_1 with c < min(q, 3), and 64 seeded draws, then gives up
    desc = field_desc(5, "inert")
    N = auto_precision(n)
    ab = rand_group_instance(n, desc, seed=0)
    det = group_ring.mat_det
    seen = []

    def no_unit(M, zero, one):
        seen.append(M)
        if len(seen) == 1:
            return det(M, zero, one)  # the Gram determinant
        return TruncSeries.pi_pow(desc.k, 1).truncated(N)

    monkeypatch.setattr(group_ring, "mat_det", no_unit)
    with pytest.raises(GeneratorNotFound, match="attempt cap"):
        build_group_order(ab, N)
    tried = seen[1:]
    assert len(tried) == tries
    if n == 2:
        # column 1 of a power matrix holds the candidate's w-coordinates
        rng = random.Random(20240801)
        want = [[1, 0], [0, 1], [1, 1], [1, 2]]
        want += [[rng.randrange(5) for _ in range(2)] for _ in range(64)]
        for C, coef in zip(tried[1:], want):
            want_col = [TruncSeries.const(desc.k, c).truncated(N)
                        for c in coef]
            assert all(C[i][1].agrees_with(x)
                       for i, x in enumerate(want_col)), coef


@pytest.mark.parametrize("n", [1, 2])
def test_group_order_poly_products_bounded(monkeypatch, n):
    # t^(-l) for 0 < l < n and the n(n+1)/2 products w_i w_r, i <= r;
    # the generator search reads mult_ops and multiplies no polynomial
    calls = [0]
    mul = group_ring._poly_mul_mod

    def counted(p, q, ab):
        calls[0] += 1
        return mul(p, q, ab)

    monkeypatch.setattr(group_ring, "_poly_mul_mod", counted)
    for desc in (inert3, split3, field_desc(5, "inert")):
        for seed in range(3):
            ab = rand_group_instance(n, desc, seed=seed)
            calls[0] = 0
            build_group_order(ab, auto_precision(n))
            assert calls[0] <= n - 1 + n * (n + 1) // 2


# a unit added to one Gram entry breaks the transport's Gram congruence
CORRUPT_GRAM = """
from orbitcount.errors import InvariantViolation
from orbitcount.group_ring import build_group_order, lie_transport
from orbitcount.local_field import TruncSeries, field_desc
from orbitcount.verify import rand_group_instance
desc = field_desc(3, "inert")
order = build_group_order(rand_group_instance(2, desc, seed=1), 10)
order.G[0][0] = order.G[0][0] + TruncSeries.one(desc.k, 10)
try:
    lie_transport(order)
except InvariantViolation as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_transport_rejects_corrupted_gram(flags):
    src = os.path.dirname(os.path.dirname(orbitcount.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *flags, "-c", CORRUPT_GRAM],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("raised:") and "congruent" in proc.stdout, \
        proc.stdout
