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
    lau = pi.inv(laurent=True)
    assert lau.val() == -1
    assert (pi * lau).agrees_with(one)


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
