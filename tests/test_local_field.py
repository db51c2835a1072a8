"""Residue fields, truncated series, and quadratic extension elements."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import orbitcount
from orbitcount.errors import NotAUnit, PrecisionExhausted, SchemaError
from orbitcount.gf import gf_by_order, is_prime
from orbitcount.local_field import (EElem, TruncSeries, eelem_from_obj,
                                    eelem_to_obj, eta, field_desc,
                                    imaginary_unit)

k3 = gf_by_order(3)
inert3 = field_desc(3, "inert")
split3 = field_desc(3, "split")


def test_field_desc_rejects_bad_inputs():
    with pytest.raises(SchemaError, match="q"):
        field_desc(4, "inert")
    with pytest.raises(SchemaError, match="q"):
        field_desc(2, "inert")
    with pytest.raises(SchemaError, match="q"):
        field_desc(1, "split")
    with pytest.raises(SchemaError, match="ext"):
        field_desc(3, "ramified")


def test_field_desc_bounds_q_before_building_tables():
    from orbitcount.gf import gf_table
    assert field_desc(509, "split").q == 509
    before = gf_table.cache_info().currsize
    for q in (512, 521, 1021, 3 ** 6):
        with pytest.raises(SchemaError, match="q: .*below 512"):
            field_desc(q, "inert")
    assert gf_table.cache_info().currsize == before


# the same cases with asserts stripped: even q must still be refused
REJECT_BAD_INPUTS = """
from orbitcount.errors import SchemaError
from orbitcount.local_field import field_desc
for q, ext in ((4, "inert"), (8, "split"), (2, "inert"), (1, "split"),
               (3, "ramified")):
    try:
        field_desc(q, ext)
    except SchemaError as exc:
        print(q, ext, exc.field)
"""


def test_field_desc_rejects_bad_inputs_under_optimize():
    src = os.path.dirname(os.path.dirname(orbitcount.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", REJECT_BAD_INPUTS],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split("\n") == [
        "4 inert q", "8 split q", "2 inert q", "1 split q", "3 ramified ext",
        ""]


def test_field_desc_prime_powers():
    d9 = field_desc(9, "inert")
    assert (d9.p, d9.m, d9.q) == (3, 2, 9)
    assert field_desc(5, "split").is_split
    assert not inert3.is_split
    # the same (q, ext) always yields the same descriptor object
    assert field_desc(3, "inert") is inert3


def test_nonresidue_and_jsq():
    assert inert3.jsq == k3.least_nonresidue()
    assert not k3.is_square(inert3.jsq)
    assert split3.jsq == 1


def test_series_val_and_coeffs():
    x = TruncSeries.pi_pow(k3, 2).truncated(8)
    assert x.val() == 2
    assert x.coeff_at(2) == 1
    assert x.coeff_at(5) == 0
    with pytest.raises(PrecisionExhausted):
        x.coeff_at(8)
    assert TruncSeries.zero(k3).val() is None
    assert TruncSeries.zero(k3).is_zero()
    assert TruncSeries.pi_pow(k3, -1).val() == -1


def test_series_ring_smoke():
    one = TruncSeries.one(k3)
    pi = TruncSeries.pi_pow(k3, 1)
    x = (one + pi) * (one - pi)
    assert x.agrees_with(one - pi.shifted(1))
    assert x.coeff_at(1) == 0
    y = pi.scaled(2)
    assert (y + pi).val() is None
    assert pi.shifted(3).val() == 4


def test_series_inverse():
    one = TruncSeries.one(k3)
    pi = TruncSeries.pi_pow(k3, 1)
    u = (one + pi).truncated(10)
    assert (u * u.inv()).agrees_with(one)
    with pytest.raises(ValueError, match="exact series"):
        (one + pi).inv()
    with pytest.raises(NotAUnit):
        pi.inv()
    # a non-unit is inverted by shifting to its unit part and back
    x = (pi * u).truncated(10)
    with pytest.raises(NotAUnit):
        x.inv()
    xinv = x.shifted(-1).inv().shifted(-1)
    assert xinv.val() == -1
    assert (x * xinv).agrees_with(one)


# -- slow oracle for the series kernel -------------------------------
#
# The loops below are the plain reference the fast ring operations are
# checked against: every coefficient placed by index, the precision
# joined by hand, every result normalized by one strip pass.  They return
# (coeffs, shift, prec) triples, compared field by field.


def _ref_normal(coeffs, shift, prec):
    coeffs = list(coeffs)
    if prec is not None and shift + len(coeffs) > prec:
        del coeffs[max(prec - shift, 0):]
    i, n = 0, len(coeffs)
    while i < n and coeffs[i] == 0:
        i += 1
    j = n
    while j > i and coeffs[j - 1] == 0:
        j -= 1
    return tuple(coeffs[i:j]), (shift + i if j > i else 0), prec


def _ref_join(x, y):
    if x.prec is None:
        return y.prec
    if y.prec is None:
        return x.prec
    return min(x.prec, y.prec)


def _ref_add(x, y, table):
    prec = _ref_join(x, y)
    starts = [s.shift for s in (x, y) if s.coeffs] or [0]
    ends = [s.shift + len(s.coeffs) for s in (x, y) if s.coeffs] or [0]
    lo, hi = min(starts), max(ends)
    if prec is not None:
        hi = min(hi, prec)
    out = [0] * max(hi - lo, 0)
    for i, c in enumerate(x.coeffs):
        p = x.shift + i - lo
        if 0 <= p < len(out):
            out[p] = c
    for i, c in enumerate(y.coeffs):
        p = y.shift + i - lo
        if 0 <= p < len(out):
            out[p] = table[out[p]][c]
    return _ref_normal(out, lo, prec)


def _ref_neg(x):
    return _ref_normal([x.k.neg[c] for c in x.coeffs], x.shift, x.prec)


def _ref_scaled(x, c):
    return _ref_normal([x.k.mul[c][a] for a in x.coeffs], x.shift, x.prec)


def _ref_mul(x, y):
    if x.prec is None and y.prec is None:
        prec = None
    else:
        # an exact zero factor counts as valuation 0, as TruncSeries does
        vx = x.shift if x.coeffs else (x.prec or 0)
        vy = y.shift if y.coeffs else (y.prec or 0)
        cands = []
        if y.prec is not None:
            cands.append(vx + y.prec)
        if x.prec is not None:
            cands.append(vy + x.prec)
        prec = min(cands)
    k = x.k
    out = [0] * (len(x.coeffs) + len(y.coeffs))
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[i + j] = k.add[out[i + j]][k.mul[a][b]]
    return _ref_normal(out, x.shift + y.shift, prec)


def _triple(s):
    return s.coeffs, s.shift, s.prec


def _random_series(rng, k):
    """Exact or truncated, zero or not, at shifts from -3 to 4."""
    kind = rng.randrange(6)
    shift = rng.randrange(-3, 5)
    prec = None if kind % 2 == 0 else shift + rng.randrange(-2, 6)
    if kind < 2:
        return TruncSeries(k, (), 0, prec)
    coeffs = [rng.randrange(k.q) for _ in range(rng.randrange(1, 6))]
    coeffs[0] = rng.randrange(1, k.q)
    return TruncSeries(k, coeffs, shift, prec)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_series_ops_match_slow_reference(q):
    import random
    k = gf_by_order(q)
    rng = random.Random(q)
    kinds = set()
    for _ in range(1500):
        x, y = _random_series(rng, k), _random_series(rng, k)
        kinds.add((bool(x.coeffs), x.prec is None, bool(y.coeffs),
                   y.prec is None))
        assert _triple(x + y) == _ref_add(x, y, k.add), (x, y)
        assert _triple(x - y) == _ref_add(x, y, k.sub), (x, y)
        assert _triple(x * y) == _ref_mul(x, y), (x, y)
        assert _triple(-x) == _ref_neg(x), x
        c = rng.randrange(q)
        assert _triple(x.scaled(c)) == _ref_scaled(x, c), (x, c)
        assert x.agrees_with(y) == (not _ref_add(x, y, k.sub)[0])
    # every pairing of exact/truncated and zero/nonzero operands came up
    assert len(kinds) == 16


def _exact_series(k):
    return st.builds(
        lambda co, sh: TruncSeries(k, co, sh),
        st.lists(st.integers(0, k.q - 1), min_size=0, max_size=5),
        st.integers(-2, 2))


@given(_exact_series(k3), _exact_series(k3), _exact_series(k3))
def test_series_ring_axioms(x, y, z):
    assert ((x + y) + z).agrees_with(x + (y + z))
    assert (x * y).agrees_with(y * x)
    assert ((x * y) * z).agrees_with(x * (y * z))
    assert (x * (y + z)).agrees_with(x * y + x * z)
    assert (x - x).is_zero()


@given(_exact_series(k3), _exact_series(k3))
def test_series_val_additive(x, y):
    if x.val() is None or y.val() is None:
        assert (x * y).val() is None
    else:
        assert (x * y).val() == x.val() + y.val()


@pytest.mark.parametrize("desc", [inert3, split3])
def test_sigma_involution(desc):
    j = imaginary_unit(desc)
    assert j.sigma().agrees_with(-j)
    d = TruncSeries.const(desc.k, desc.jsq)
    assert (j * j).agrees_with(EElem.from_real(desc, d))
    x = EElem(desc, TruncSeries.pi_pow(desc.k, 1), TruncSeries.one(desc.k))
    assert x.sigma().sigma().agrees_with(x)
    y = EElem(desc, TruncSeries.one(desc.k), TruncSeries.pi_pow(desc.k, 2))
    assert (x * y).sigma().agrees_with(x.sigma() * y.sigma())
    assert (x * x.sigma()).im.is_zero()
    assert x.norm().agrees_with((x * x.sigma()).re)


def test_eelem_sub_refuses_mixed_fields():
    # q = 3 split and inert share k, so the components alone would subtract
    with pytest.raises(ValueError, match="different fields"):
        EElem.one(split3) - EElem.one(inert3)
    assert (EElem.one(split3) - EElem.one(split3)).val() is None


def test_eelem_agrees_with_refuses_mixed_fields():
    with pytest.raises(ValueError, match="different fields"):
        EElem.one(split3).agrees_with(EElem.one(inert3))
    assert EElem.one(inert3).agrees_with(EElem.one(inert3))


def test_split_pair_coordinates():
    u = TruncSeries.one(k3)
    v = TruncSeries.pi_pow(k3, 1)
    x = EElem.from_split_pair(split3, u, v)
    uu, vv = x.split_pair()
    assert uu.agrees_with(u) and vv.agrees_with(v)
    # sigma swaps the two split coordinates
    su, sv = x.sigma().split_pair()
    assert su.agrees_with(v) and sv.agrees_with(u)
    assert x.val() == 0 and x.is_integral()


def test_eelem_val_ignores_digits_past_its_precision():
    # pi^6 + O(pi^9) + j O(pi^4) is known modulo pi^4 only, so it is 0
    # there, as a series would be
    x = EElem(inert3, TruncSeries.pi_pow(k3, 6).truncated(9),
              TruncSeries.zero(k3, 4))
    assert x.prec == 4
    assert x.val() is None and x.is_integral()
    y = EElem(inert3, TruncSeries.pi_pow(k3, 3).truncated(9),
              TruncSeries.zero(k3, 4))
    assert y.val() == 3


def test_eta_values():
    for e in range(5):
        assert eta(e, inert3) == (-1) ** e
        assert eta(e, split3) == 1


@pytest.mark.parametrize("desc", [inert3, split3, field_desc(9, "inert")])
def test_eelem_serialization_roundtrip(desc):
    k = desc.k
    x = EElem(desc,
              TruncSeries(k, [1, 0, 2 % k.q], -1),
              TruncSeries(k, [k.q - 1], 2))
    obj = json.loads(json.dumps(eelem_to_obj(x)))
    y = eelem_from_obj(obj, desc, field="t")
    assert x.agrees_with(y)
    assert y.prec is None


def test_eelem_deserialization_errors():
    with pytest.raises(SchemaError):
        eelem_from_obj({"bogus": 1}, inert3, field="a[1]")
    with pytest.raises(SchemaError):
        eelem_from_obj(42, inert3, field="a[1]")
    ok = eelem_to_obj(EElem.one(split3))
    with pytest.raises(SchemaError):
        eelem_from_obj(ok, inert3, field="x")


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
