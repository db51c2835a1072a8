"""Invariant pairs: validation, regularity, and matrix extraction."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import orbitcount
from orbitcount.errors import (InvariantViolation, NotStronglyRegular,
                               PrecisionExhausted, SchemaError)
from orbitcount.group_ring import build_group_order, lie_transport
from orbitcount.invariants import (InvariantPair, MatrixE, _power_sums,
                                   _recurrence, char_poly_disc,
                                   delta_invariant, invariants_of, real_forms,
                                   regular_val, strong_regularity,
                                   twisted_moments, v_invariant)
from orbitcount.linalg import mat_det
from orbitcount.local_field import (EElem, TruncSeries, field_desc,
                                    imaginary_unit, j_power)
from orbitcount.verify import (auto_precision, rand_group_instance,
                               rand_invariants)

inert3 = field_desc(3, "inert")
split3 = field_desc(3, "split")


def _j(desc):
    return imaginary_unit(desc)


def _pi_pair(desc, e):
    """n = 1 pair with a_1 = 0 and b_0 = pi^e."""
    b0 = EElem.from_real(desc, TruncSeries.pi_pow(desc.k, e))
    return InvariantPair([EElem.zero(desc)], [b0], desc)


def test_validate_rejects_wrong_parity():
    one = EElem.one(inert3)
    with pytest.raises(SchemaError, match=r"a\[1\].*parity"):
        InvariantPair([one], [one], inert3).validate()
    with pytest.raises(SchemaError, match=r"b\[0\].*parity"):
        InvariantPair([_j(inert3)], [_j(inert3)], inert3).validate()
    with pytest.raises(SchemaError, match=r"b\[1\].*parity"):
        InvariantPair([_j(split3), EElem.one(split3)],
                      [EElem.one(split3), EElem.one(split3)],
                      split3).validate()


def test_validate_rejects_nonintegral():
    desc = inert3
    bad = EElem.from_real(desc, TruncSeries.pi_pow(desc.k, -1))
    with pytest.raises(SchemaError, match=r"b\[0\].*integrality"):
        InvariantPair([EElem.zero(desc)], [bad], desc).validate()
    with pytest.raises(SchemaError, match=r"a\[1\].*integrality"):
        InvariantPair([bad * _j(desc)], [EElem.one(desc)], desc).validate()


def test_validate_accepts_and_returns_self():
    ab = _pi_pair(inert3, 2)
    assert ab.validate() is ab
    assert ab.n == 1


def test_strong_regularity_of_pi_chains():
    for desc in (inert3, split3):
        for e in range(4):
            rep = strong_regularity(_pi_pair(desc, e))
            assert rep.strongly_regular
            assert rep.val_delta == e
            assert rep.val_disc == 0


def test_delta_homogeneous_in_b():
    for desc in (inert3, split3):
        for n in (1, 2):
            ab = rand_invariants(n, desc, seed=5)
            rep = strong_regularity(ab)
            lift = EElem.from_real(desc, TruncSeries.pi_pow(desc.k, 1))
            scaled = InvariantPair(ab.a, [x * lift for x in ab.b], desc)
            # Delta is homogeneous of degree n in the moments
            assert strong_regularity(scaled).val_delta == rep.val_delta + n
            d0 = delta_invariant(ab)
            d1 = delta_invariant(scaled)
            assert d1.val() == d0.val() + n


def test_invariants_of_explicit_matrix():
    desc = inert3
    j = _j(desc)
    pi = EElem.from_real(desc, TruncSeries.pi_pow(desc.k, 1))
    z = EElem.zero(desc)
    A = MatrixE([[z, j], [j * pi, z]], desc)
    # A lies in s_n: A + sigma(A) = 0
    assert all((x + x.sigma()).val() is None for row in A.entries for x in row)
    ab = invariants_of(A)
    ab.validate()
    assert ab.a[0].val() is None
    # a_2 = det A = -j^2 pi
    want = (-(j * j)) * pi
    assert ab.a[1].agrees_with(want)
    # moments against e_0: b_0 = 1, b_1 = e_0* A e_0 = 0
    assert ab.b[0].agrees_with(EElem.one(desc))
    assert ab.b[1].val() is None
    assert v_invariant(A) == 1


def test_moment_sequence_prefix():
    ab = rand_invariants(2, split3, seed=3)
    s = _recurrence(ab.a, ab.b, 5, EElem.zero(split3))
    assert len(s) == 5
    for i in range(2):
        assert s[i].agrees_with(ab.b[i])
    # s_2 follows the recurrence a_1 s_1 - a_2 s_0
    want = ab.a[0] * s[1] - ab.a[1] * s[0]
    assert s[2].agrees_with(want)


def _sylvester_disc(ab):
    """Slow side for char_poly_disc: (-1)^(n(n-1)/2) Res(P_a, P_a') as
    the (2n - 1) x (2n - 1) Sylvester determinant of P_a and P_a'."""
    n, desc = ab.n, ab.desc
    zero, one = EElem.zero(desc), EElem.one(desc)
    if n == 1:
        return one
    # descending coefficients of P_a = t^n + sum (-1)^i a_i t^(n-i)
    p = [one] + [ab.a[i - 1] if i % 2 == 0 else -ab.a[i - 1]
                 for i in range(1, n + 1)]
    dp = [p[i].scaled((n - i) % desc.p) for i in range(n)]
    size = 2 * n - 1
    S = [[zero] * size for _ in range(size)]
    for i in range(n - 1):
        for j, c in enumerate(p):
            S[i][i + j] = c
    for i in range(n):
        for j, c in enumerate(dp):
            S[n - 1 + i][i + j] = c
    res = mat_det(S, zero, one)
    return -res if (n * (n - 1) // 2) % 2 else res


def _lie_pairs(desc, n, rng):
    """Exact parity-correct pairs: a = 0 (P_a = t^n) and two random a.
    b = (0, .., 0, j^(n-1)) makes Delta a unit at every precision, so
    strong_regularity can only be indeterminate through disc(P_a)."""
    k = desc.k
    jp = [EElem.one(desc)]
    for _ in range(n):
        jp.append(jp[-1] * imaginary_unit(desc))
    b = [EElem.zero(desc)] * (n - 1) + [jp[n - 1]]
    out = [InvariantPair([EElem.zero(desc)] * n, b, desc)]
    for _ in range(2):
        a = []
        for i in range(1, n + 1):
            lo = rng.choice((0, 0, 1, 2))
            s = TruncSeries(k, [rng.randrange(k.q) for _ in range(3)], lo)
            a.append(jp[i] * EElem.from_real(desc, s))
        out.append(InvariantPair(a, b, desc))
    return out


def _check_disc(ab):
    """char_poly_disc agrees with the Sylvester side: same digits, same
    precision (exact values are equal), so the same valuation and the
    same vanishing."""
    want = _sylvester_disc(ab)
    got = char_poly_disc(ab)
    assert got.val() == want.val()
    assert got.prec == want.prec
    assert got.agrees_with(want)
    return want


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_disc_matches_sylvester_on_lie_pairs(q):
    """n = 1..5, both extensions, p <= n included; exact and truncated."""
    for ext in ("split", "inert"):
        desc = field_desc(q, ext)
        rng = random.Random(f"disc:{q}:{ext}")
        for n in range(1, 6):
            for ab in _lie_pairs(desc, n, rng):
                for N in (None, 1, 2, 3, 5):
                    cut = ab if N is None else ab.truncated(N)
                    want = _check_disc(cut)
                    indeterminate = want.val() is None and want.prec is not None
                    try:
                        rep = strong_regularity(cut)
                    except PrecisionExhausted:
                        assert indeterminate, (n, N)
                    else:
                        assert not indeterminate, (n, N)
                        assert rep.val_disc == want.val()


def _e_forms(ab):
    """Slow side for the real forms: Delta and disc(P_a) as Hankel
    determinants over E of b'(t^m) and Tr(t^m), disc cut to the least
    precision of the a_i as char_poly_disc reports it."""
    n, desc = ab.n, ab.desc
    zero, one = EElem.zero(desc), EElem.one(desc)

    def hankel(s):
        return mat_det([[s[i + j] for j in range(n)] for i in range(n)],
                       zero, one)

    delta = hankel(_recurrence(ab.a, ab.b, 2 * n - 1, zero))
    assert delta.im.is_zero()
    if n == 1:
        return delta, one
    disc = hankel(_power_sums(ab.a, 2 * n - 1, zero, one, desc.p))
    precs = [x.prec for x in ab.a if x.prec is not None]
    return delta, disc.truncated(min(precs)) if precs else disc


def _classify(disc, delta, ab):
    """strong_regularity's outcome from the two values: PrecisionExhausted
    (disc checked first) or the valuations, None for an exact zero
    (NotStronglyRegular in build_order)."""
    try:
        return (regular_val(disc, ab, "disc(P_a)"),
                regular_val(delta, ab, "Delta"))
    except PrecisionExhausted as exc:
        return ("indeterminate", str(exc), exc.needed)


def _kind(outcome):
    if outcome[0] == "indeterminate":
        return "indeterminate"
    return "singular" if None in outcome else "regular"


def _check_real_forms(ab):
    """Real-form Delta and disc agree with the E forms: same digits,
    same precision, same classification."""
    assert real_forms(ab) is not None
    want = _e_forms(ab)
    got = (delta_invariant(ab), char_poly_disc(ab))
    for g, w in zip(got, want):
        assert g.prec == w.prec
        assert g.agrees_with(w)
    expect = _classify(want[1], want[0], ab)
    assert _classify(got[1], got[0], ab) == expect
    try:
        rep = strong_regularity(ab)
    except PrecisionExhausted as exc:
        assert expect == ("indeterminate", str(exc), exc.needed)
    else:
        assert (rep.val_disc, rep.val_delta) == expect
        assert rep.strongly_regular == (None not in expect)
        assert len(rep.moments) == 2 * ab.n - 1
    return expect


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_real_forms_match_e_forms_on_lie_pairs(q):
    """The _lie_pairs grid: n = 1..5, both extensions, p <= n included;
    exact and truncated.  Every classification occurs."""
    seen = set()
    for ext in ("split", "inert"):
        desc = field_desc(q, ext)
        rng = random.Random(f"disc:{q}:{ext}")
        for n in range(1, 6):
            for ab in _lie_pairs(desc, n, rng):
                for N in (None, 1, 2, 3, 5):
                    seen.add(_kind(_check_real_forms(
                        ab if N is None else ab.truncated(N))))
    assert seen == {"regular", "singular", "indeterminate"}


def _lopsided(x, i, N, M):
    """x truncated at N, the component its parity makes vanish at M < N."""
    keep, drop = (x.im, x.re) if i % 2 else (x.re, x.im)
    keep, drop = keep.truncated(N), drop.truncated(M)
    return EElem(x.desc, *((drop, keep) if i % 2 else (keep, drop)))


@pytest.mark.parametrize("ext", ["split", "inert"])
def test_real_forms_match_e_forms_on_lopsided_precision(ext):
    """Pairs whose vanishing components carry less precision than the
    others, down to none at all.  Over E the value of Delta can then
    hold a digit at or past its own precision, which regular_val does
    not read, so the two paths still classify alike."""
    seen = set()
    for q in (3, 5, 7):
        desc = field_desc(q, ext)
        k = desc.k
        rng = random.Random(f"lopsided:{q}:{ext}")
        for n in range(1, 5):
            for _ in range(25):
                entries = []
                for i in list(range(1, n + 1)) + list(range(n)):
                    s = TruncSeries(k, [rng.randrange(k.q) for _ in range(4)],
                                    rng.choice((0, 0, 1, 2)))
                    N = rng.choice((2, 3, 4, 6))
                    x = j_power(desc, i, s)
                    entries.append(_lopsided(x, i, N, rng.randrange(N)))
                ab = InvariantPair(entries[:n], entries[n:], desc)
                seen.add(_kind(_check_real_forms(ab)))
    assert {"regular", "indeterminate"} <= seen


def test_non_parity_pair_keeps_the_e_path():
    """The real gl-side pair of the variant transport test has no
    parity, so it has no real forms and is read over E."""
    desc = inert3
    k = desc.k
    raw = InvariantPair(
        [EElem.from_real(desc, TruncSeries.const(k, 2)),
         EElem.from_real(desc, TruncSeries.pi_pow(k, 1))],
        [EElem.one(desc), EElem.from_real(desc, TruncSeries.pi_pow(k, 1))],
        desc)
    assert real_forms(raw) is None
    want = _e_forms(raw)
    for got, w in zip((delta_invariant(raw), char_poly_disc(raw)), want):
        assert got == w
    rep = strong_regularity(raw)
    assert rep.moments is None and rep.alpha is None
    assert (rep.val_disc, rep.val_delta) == _classify(want[1], want[0], raw)
    with pytest.raises(InvariantViolation, match="parity-correct"):
        twisted_moments(raw, 3)


def test_imaginary_delta_is_an_invariant_violation():
    # a_1 = b_0 = j: b_0 lacks its parity, so the pair has no real forms,
    # and over E Delta = b_0 = j has a nonzero imaginary part
    j = _j(inert3)
    ab = InvariantPair([j], [j], inert3)
    assert real_forms(ab) is None
    with pytest.raises(InvariantViolation, match="imaginary part"):
        delta_invariant(ab)


def _group_pair(desc, x):
    """n = 2 group pair with a_2 = 1, a_1 = x + sigma(x), b = (1, a_1 / 2),
    as rand_group_instance builds them, for a real x."""
    one = EElem.one(desc)
    a1 = x + x.sigma()
    half = EElem.from_real(desc, TruncSeries.const(desc.k, desc.k.inv[2]))
    return InvariantPair([a1, one], [one, a1 * half], desc)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_disc_matches_sylvester_on_group_pairs(q):
    """Group pairs for n <= 2 and the Lie pairs lie_transport makes of
    them, which are truncated at the order's working precision; then a
    group pair whose disc vanishes modulo pi^2 only, at several
    precisions, and one whose disc is exactly 0.  build_group_order
    classifies disc as strong_regularity does."""
    for ext in ("split", "inert"):
        desc = field_desc(q, ext)
        for n in (1, 2):
            for seed in range(3):
                ab = rand_group_instance(n, desc, seed=seed)
                _check_disc(ab)
                N = auto_precision(n)
                _check_disc(lie_transport(build_group_order(ab, N)))
        # x = 1 + pi^2: a_1 = 2 + 2 pi^2, disc = a_1^2 - 4 = 8 pi^2 + 4 pi^4
        ab = _group_pair(desc, EElem.from_real(
            desc, TruncSeries(desc.k, [1, 0, 1], 0)))
        for N in (1, 2, 3, None):
            cut = ab if N is None else ab.truncated(N)
            want = _check_disc(cut)
            if N is not None and N <= 2:
                assert want.val() is None
                with pytest.raises(PrecisionExhausted, match="disc"):
                    build_group_order(cut, auto_precision(2))
            else:
                assert want.val() == 2
        singular = _group_pair(desc, EElem.one(desc))
        assert _check_disc(singular).val() is None
        with pytest.raises(NotStronglyRegular, match="disc"):
            build_group_order(singular, auto_precision(2))


@given(st.integers(0, 10_000), st.sampled_from([1, 2]),
       st.sampled_from(["inert", "split"]))
def test_sampler_output_always_validates(seed, n, ext):
    ab = rand_invariants(n, field_desc(3, ext), seed=seed)
    ab.validate()
    rep = strong_regularity(ab)
    assert rep.strongly_regular


def test_pair_truncation_and_prec():
    ab = rand_invariants(1, inert3, seed=0)
    assert ab.prec() is None
    cut = ab.truncated(5)
    assert cut.prec() == 5
    assert cut.a[0].agrees_with(ab.a[0])


# each call must raise its error (ValueError for bad input, the last
# InvariantViolation); python -O strips asserts, so a check written as
# one would let the input through
BAD_INPUTS = """
from orbitcount.errors import InvariantViolation
from orbitcount.invariants import InvariantPair, MatrixE, delta_invariant
from orbitcount.linalg import smith_normal_form
from orbitcount.local_field import (EElem, TruncSeries, field_desc,
                                    imaginary_unit)
inert3, inert5 = field_desc(3, "inert"), field_desc(5, "inert")
split3 = field_desc(3, "split")
one = TruncSeries.one(inert3.k)
j = imaginary_unit(inert3)
cases = [
    ("mixed fields", lambda: MatrixE([[EElem.one(inert3)]], inert5)),
    ("non-square", lambda: smith_normal_form([[one, one]], 4)),
    ("mixed difference", lambda: EElem.one(split3) - EElem.one(inert3)),
    ("mixed agreement",
     lambda: EElem.one(split3).agrees_with(EElem.one(inert3))),
]
for name, call in cases:
    try:
        call()
        print(name, "accepted")
    except ValueError:
        print(name, "rejected")
try:
    delta_invariant(InvariantPair([j], [j], inert3))
    print("imaginary Delta accepted")
except InvariantViolation:
    print("imaginary Delta rejected")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_input_checks_survive_optimize(flags):
    src = os.path.dirname(os.path.dirname(orbitcount.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *flags, "-c", BAD_INPUTS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split("\n")[:5] == [
        "mixed fields rejected", "non-square rejected",
        "mixed difference rejected", "mixed agreement rejected",
        "imaginary Delta rejected"], proc.stdout
