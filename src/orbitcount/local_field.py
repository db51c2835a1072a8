"""Exact arithmetic in F = F_q((pi)) and its quadratic etale extension E.

Representation conventions:

* ``TruncSeries`` holds a Laurent series sum coeffs[i] * pi^(shift+i) with
  coefficients in k = F_q (indices into a GFTable).  ``prec`` is the
  absolute precision: the value is known modulo pi^prec.  ``prec=None``
  means the series is exact, i.e. a genuine Laurent polynomial.  All
  arithmetic propagates the minimum precision and never reads unknown
  coefficients.

* E is either split (F x F) or inert (the unramified quadratic extension
  with residue field k' = k[x]/(x^2 - d), d the canonical nonresidue).
  Both cases share the decomposition E = F + F*j with j purely imaginary
  and j^2 = d (inert) or j^2 = 1 (split, j = (1,-1)).  ``EElem`` stores the
  pair (re, im) with value re + j*im; sigma is im-negation, which matches
  the coefficientwise residue Frobenius in the inert case and the swap
  (u, v) -> (v, u) in the split case.  The split components are
  u = re + im and v = re - im.

Element validity such as integrality or sigma-parity is always a check on
this normal form, so one code path serves both extension kinds.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotAUnit, PrecisionExhausted, SchemaError, is_json_int
from .gf import gf_by_order, gf_table

SPLIT = "split"
INERT = "inert"


class FieldDesc:
    """Description of the pair (F, E): residue field size and extension kind."""

    __slots__ = ("p", "m", "q", "ext", "k", "jsq")

    def __init__(self, p, m, ext):
        if ext not in (SPLIT, INERT):
            raise ValueError(f"unknown extension kind {ext!r}")
        self.p = p
        self.m = m
        self.k = gf_table(p, m)
        self.q = self.k.q
        self.ext = ext
        # j^2 as a residue constant; eta of its class is -1 exactly when inert
        self.jsq = self.k.least_nonresidue() if ext == INERT else 1

    @property
    def is_split(self):
        return self.ext == SPLIT

    def __repr__(self):
        return f"FieldDesc(q={self.q}, ext={self.ext!r})"

    def __eq__(self, other):
        return (isinstance(other, FieldDesc)
                and (self.p, self.m, self.ext) == (other.p, other.m, other.ext))

    def __hash__(self):
        return hash((self.p, self.m, self.ext))


# GFTable builds dense q x q tables, whose memory grows as q^2
MAX_Q = 512


@lru_cache(maxsize=None)
def field_desc(q, ext):
    if ext not in (SPLIT, INERT):
        raise SchemaError("ext", "expected 'split' or 'inert'")
    if is_json_int(q) and q >= MAX_Q:
        raise SchemaError("q", f"{q} is too large: the field tables are "
                               f"dense, so q must be below {MAX_Q}")
    try:
        k = gf_by_order(q)
    except (ValueError, TypeError) as exc:
        raise SchemaError("q", str(exc)) from None
    return FieldDesc(k.p, k.m, ext)


class TruncSeries:
    """Laurent series over k at tracked absolute precision.

    Normal form: ``coeffs`` is a tuple with nonzero first and last entries
    (leading zeros are folded into ``shift``; trailing known-zeros are
    implicit).  The zero series has ``coeffs = ()`` and ``shift = 0``.
    The constructor takes ``coeffs`` as a list or tuple and brings it to
    normal form; results already in it come from _normal.
    """

    __slots__ = ("k", "shift", "coeffs", "prec")

    def __init__(self, k, coeffs, shift=0, prec=None):
        n = len(coeffs)
        if prec is not None and shift + n > prec:
            # coefficients at or beyond the precision are meaningless
            n = prec - shift if prec > shift else 0
        # strip leading zeros into the shift; trailing zeros are implicit
        i = 0
        while i < n and coeffs[i] == 0:
            i += 1
        while n > i and coeffs[n - 1] == 0:
            n -= 1
        self.k = k
        self.coeffs = tuple(coeffs[i:n])
        self.shift = shift + i if n > i else 0
        self.prec = prec

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(k, prec=None):
        return TruncSeries(k, (), 0, prec)

    @staticmethod
    def const(k, c):
        if not 0 <= c < k.q:
            raise ValueError(f"{c} is not an element index of F_{k.q}")
        return TruncSeries(k, (c,), 0, None)

    @staticmethod
    def one(k, prec=None):
        return TruncSeries(k, (1,), 0, prec)

    @staticmethod
    def pi_pow(k, e):
        return TruncSeries(k, (1,), e, None)

    # -- structure ---------------------------------------------------

    @property
    def is_exact(self):
        return self.prec is None

    def is_zero(self):
        """True if indistinguishable from 0 (exactly 0 when exact)."""
        return not self.coeffs

    def val(self):
        """Valuation, or None when the series is 0 to its precision.

        Exact zero also returns None (valuation +infinity).
        """
        return self.shift if self.coeffs else None

    def coeff_at(self, i):
        if self.coeffs:
            if i < self.shift:
                return 0
            if i < self.shift + len(self.coeffs):
                return self.coeffs[i - self.shift]
        if self.prec is None or i < self.prec:
            return 0
        raise PrecisionExhausted(f"coefficient of pi^{i} unknown at precision {self.prec}")

    def truncated(self, prec):
        if self.prec is not None and self.prec <= prec:
            return self
        return TruncSeries(self.k, self.coeffs, self.shift, prec)

    def shifted(self, e):
        """Multiplication by pi^e (exactness preserved)."""
        prec = None if self.prec is None else self.prec + e
        return _normal(self.k, self.coeffs,
                       self.shift + e if self.coeffs else 0, prec)

    # -- ring ops ----------------------------------------------------

    def _combine(self, other, table):
        """self + other (table k.add) or self - other (table k.sub), to
        the lesser precision: one pass over the coefficients of each,
        both first cut at that precision."""
        k = self.k
        if k is not other.k:
            raise ValueError("series over different residue fields")
        pa, pb = self.prec, other.prec
        prec = pb if pa is None else pa if pb is None or pa < pb else pb
        a, b = self.coeffs, other.coeffs
        sa, sb = self.shift, other.shift
        if not b and (prec is None or pa == prec):
            return self
        if not a and (prec is None or pb == prec):
            return other if table is k.add else -other
        ea, eb = sa + len(a), sb + len(b)
        # a zero operand occupies no range: place it where the other starts
        if not a:
            sa = ea = sb
        elif not b:
            sb = eb = sa
        lo = sa if sa < sb else sb
        hi = ea if ea > eb else eb
        if prec is not None and hi > prec:
            hi = prec
            if ea > prec:
                a = a[:prec - sa] if prec > sa else ()
                ea = sa + len(a)
            if eb > prec:
                b = b[:prec - sb] if prec > sb else ()
        if hi <= lo:
            return TruncSeries(k, (), 0, prec)
        out = [0] * (hi - lo)
        out[sa - lo:ea - lo] = a
        for i, c in enumerate(b, sb - lo):
            out[i] = table[out[i]][c]
        return TruncSeries(k, out, lo, prec)

    def __add__(self, other):
        return self._combine(other, self.k.add)

    def __sub__(self, other):
        return self._combine(other, self.k.sub)

    def __neg__(self):
        return _normal(self.k, tuple(map(self.k.neg.__getitem__, self.coeffs)),
                       self.shift, self.prec)

    def __mul__(self, other):
        k = self.k
        if k is not other.k:
            raise ValueError("series over different residue fields")
        a, b = self.coeffs, other.coeffs
        pa, pb = self.prec, other.prec
        # known modulo pi^min(val(x)+prec(y), val(y)+prec(x))
        if pa is None and pb is None:
            prec = None
        else:
            vx = self.shift if a else pa
            vy = other.shift if b else pb
            if pb is None:
                prec = (vy or 0) + pa
            elif pa is None:
                prec = (vx or 0) + pb
            else:
                x, y = (vx or 0) + pb, (vy or 0) + pa
                prec = x if x < y else y
        if not a or not b:
            return TruncSeries(k, (), 0, prec)
        add, mul = k.add, k.mul
        n = len(a) + len(b) - 1
        lo = self.shift + other.shift
        if prec is not None and n > prec - lo:
            n = prec - lo
            if n <= 0:
                return TruncSeries(k, (), 0, prec)
        out = [0] * n
        for i, x in enumerate(a):
            if x:
                row = mul[x]
                for j, y in enumerate(b):
                    p = i + j
                    if p >= n:
                        break
                    if y:
                        out[p] = add[out[p]][row[y]]
        # out[0] = a[0] b[0] is a unit, and only a product cut at its
        # precision can end in zeros
        while not out[n - 1]:
            n -= 1
        return _normal(k, tuple(out[:n]), lo, prec)

    def scaled(self, c):
        """Multiplication by the residue constant c (an index into k)."""
        if not 0 <= c < self.k.q:
            raise ValueError(f"{c} is not an element index of F_{self.k.q}")
        if c == 0:
            return TruncSeries(self.k, (), 0, self.prec)
        # a unit keeps the first and last coefficients nonzero
        return _normal(self.k, tuple(map(self.k.mul[c].__getitem__,
                                         self.coeffs)),
                       self.shift, self.prec)

    def inv(self):
        """Inverse of a unit (val 0), known to the digits the input allows.

        Any other valuation raises NotAUnit: invert pi^v u as
        pi^(-v) u^(-1) by shifting.  An exact unit inverts only when it
        is a constant, whose inverse is again exact; truncate any other
        first.
        """
        v = self.val()
        if v is None:
            if self.is_exact:
                raise NotAUnit("exact zero has no inverse")
            raise PrecisionExhausted("cannot invert a series that is 0 at working precision")
        if v != 0:
            raise NotAUnit(f"valuation {v} element is not a unit")
        if self.is_exact and len(self.coeffs) == 1:
            return TruncSeries(self.k, (self.k.inv[self.coeffs[0]],), 0, None)
        if self.is_exact:
            raise ValueError("an exact series inverts only as a constant; "
                             "truncate it first")
        # a unit is known to at least its constant digit, so prec >= 1
        prec = self.prec
        add, mul, kinv, neg = self.k.add, self.k.mul, self.k.inv, self.k.neg
        u0 = kinv[self.coeffs[0]]
        out = [u0] + [0] * (prec - 1)
        for i in range(1, prec):
            # coefficient i of u * out must vanish
            acc = 0
            for t in range(1, min(i, len(self.coeffs) - 1) + 1):
                a = self.coeffs[t]
                if a:
                    acc = add[acc][mul[a][out[i - t]]]
            out[i] = mul[u0][neg[acc]]
        return TruncSeries(self.k, out, 0, prec)

    # -- comparison --------------------------------------------------

    def agrees_with(self, other):
        """Equality to the shared precision (exact equality when both exact)."""
        d = self - other
        return not d.coeffs

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.k is other.k and self.shift == other.shift
                and self.coeffs == other.coeffs and self.prec == other.prec)

    def __hash__(self):
        return hash((self.shift, self.coeffs, self.prec))

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for i, c in enumerate(self.coeffs):
                if c:
                    e = self.shift + i
                    parts.append(f"{c}" if e == 0 else f"{c}*pi^{e}")
            body = " + ".join(parts)
        tail = "" if self.prec is None else f" + O(pi^{self.prec})"
        return f"<{body}{tail}>"


def _normal(k, coeffs, shift, prec):
    """A TruncSeries from parts already in its normal form (a tuple with
    nonzero ends, none at or past prec, shift 0 when empty), built
    without the constructor's strip pass."""
    s = object.__new__(TruncSeries)
    s.k = k
    s.coeffs = coeffs
    s.shift = shift
    s.prec = prec
    return s


class EElem:
    """Element of E (or of F, when the imaginary part vanishes)."""

    __slots__ = ("desc", "re", "im")

    def __init__(self, desc, re, im):
        if re.k is not desc.k or im.k is not desc.k:
            raise ValueError("components are not series over the field's k")
        self.desc = desc
        self.re = re
        self.im = im

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_real(desc, series):
        return EElem(desc, series, TruncSeries.zero(desc.k, series.prec))

    @staticmethod
    def zero(desc):
        z = TruncSeries.zero(desc.k)
        return EElem(desc, z, z)

    @staticmethod
    def one(desc):
        return EElem(desc, TruncSeries.one(desc.k), TruncSeries.zero(desc.k))

    @staticmethod
    def from_split_pair(desc, u, v):
        """Element (u, v) of the split algebra F x F."""
        if not desc.is_split:
            raise ValueError("split pairs need a split extension")
        inv2 = desc.k.inv[2 % desc.q]
        re = (u + v).scaled(inv2)
        im = (u - v).scaled(inv2)
        return EElem(desc, re, im)

    def split_pair(self):
        if not self.desc.is_split:
            raise ValueError("split pairs need a split extension")
        return self.re + self.im, self.re - self.im

    # -- structure ---------------------------------------------------

    def sigma(self):
        """Galois involution: frobenius on coefficients (inert), swap (split)."""
        return EElem(self.desc, self.re, -self.im)

    def val(self):
        """min of the component valuations; None when 0 at working precision.

        The element is known modulo pi^prec, the lesser component
        precision, so a digit at or past it, held by the component that
        is known further, does not count: as for TruncSeries, that is 0.
        """
        vr, vi = self.re.val(), self.im.val()
        v = vi if vr is None else vr if vi is None else min(vr, vi)
        prec = self.prec
        return None if v is None or (prec is not None and v >= prec) else v

    def is_integral(self):
        v = self.val()
        return v is None or v >= 0

    @property
    def prec(self):
        pr, pi_ = self.re.prec, self.im.prec
        if pr is None:
            return pi_
        if pi_ is None:
            return pr
        return min(pr, pi_)

    def truncated(self, prec):
        return EElem(self.desc, self.re.truncated(prec), self.im.truncated(prec))

    # -- ring ops ----------------------------------------------------

    def __add__(self, other):
        if self.desc is not other.desc and self.desc != other.desc:
            raise ValueError("elements of different fields")
        return EElem(self.desc, self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if self.desc is not other.desc and self.desc != other.desc:
            raise ValueError("elements of different fields")
        return EElem(self.desc, self.re - other.re, self.im - other.im)

    def __neg__(self):
        return EElem(self.desc, -self.re, -self.im)

    def __mul__(self, other):
        if self.desc is not other.desc and self.desc != other.desc:
            raise ValueError("elements of different fields")
        d = self.desc.jsq
        rr = self.re * other.re
        ii = self.im * other.im
        ri = self.re * other.im
        ir = self.im * other.re
        return EElem(self.desc, rr + ii.scaled(d), ri + ir)

    def scaled(self, c):
        return EElem(self.desc, self.re.scaled(c), self.im.scaled(c))

    def norm(self):
        """x * sigma(x) as a real series."""
        return self.re * self.re - (self.im * self.im).scaled(self.desc.jsq)

    def inv(self):
        """sigma(x) / norm(x), for a unit x (see TruncSeries.inv)."""
        nm = self.norm()
        if nm.is_zero():
            if nm.is_exact:
                raise NotAUnit("zero divisor (norm is exactly 0)")
            raise PrecisionExhausted("norm is 0 at working precision")
        ninv = nm.inv()
        s = self.sigma()
        return EElem(self.desc, s.re * ninv, s.im * ninv)

    def agrees_with(self, other):
        if self.desc is not other.desc and self.desc != other.desc:
            raise ValueError("elements of different fields")
        return self.re.agrees_with(other.re) and self.im.agrees_with(other.im)

    def __eq__(self, other):
        if not isinstance(other, EElem):
            return NotImplemented
        return self.desc == other.desc and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"EE({self.re!r} + j*{self.im!r})"


def imaginary_unit(desc):
    """The canonical purely imaginary unit j, with j^2 = desc.jsq.

    Inert: j = x with x^2 = d, d the canonical nonresidue.  Split:
    j = (1, -1).
    """
    return EElem(desc, TruncSeries.zero(desc.k), TruncSeries.one(desc.k))


def j_power(desc, i, x):
    """j^i x for a real series x, built without E products: d^(i//2) x,
    d = j^2, in the real component for even i, in the imaginary one for
    odd i."""
    y = x.scaled(desc.k.pow(desc.jsq, i // 2))
    z = TruncSeries.zero(desc.k, x.prec)
    return EElem(desc, y, z) if i % 2 == 0 else EElem(desc, z, y)


def eta(v, desc):
    """Quadratic character of E/F at an element of F of valuation v.

    Split extensions are norms everywhere: eta = +1.  Inert: (-1)^v,
    since every residue unit is a norm from the unramified extension.
    """
    return 1 if desc.is_split or v % 2 == 0 else -1


# -- serialization ---------------------------------------------------
#
# Series: {"shift": s, "coeffs": [[digits..], ..]} where each inner list is
# the base-p digit vector of one residue coefficient: length m over k,
# length 2m over k' (the k-part digits then the x-part digits).  EElem:
# {"inert": series} with k' coefficients, or {"split": [series_u, series_v]}
# with k coefficients.  Exactness is implied: serialized coefficients are
# the complete list of nonzero ones.


def series_to_obj(s):
    if not s.is_exact:
        raise ValueError("only exact series serialize losslessly")
    k = s.k
    return {"shift": s.shift if s.coeffs else 0,
            "coeffs": [k.digits(c) for c in s.coeffs]}


def _digit_rows(obj, k, width, field):
    """(shift, coeffs) of a series object whose coeffs are digit vectors
    of the given width, each checked."""
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise SchemaError(field, "expected a series object with 'coeffs'")
    if not isinstance(obj["coeffs"], list):
        raise SchemaError(field + ".coeffs", "expected a list")
    shift = obj.get("shift", 0)
    if not is_json_int(shift):
        raise SchemaError(field + ".shift", "must be an integer")
    for i, ds in enumerate(obj["coeffs"]):
        if not (isinstance(ds, list) and len(ds) == width
                and all(is_json_int(d) and 0 <= d < k.p for d in ds)):
            raise SchemaError(f"{field}.coeffs[{i}]",
                              f"expected {width} base-{k.p} digits")
    return shift, obj["coeffs"]


def series_from_obj(obj, k, field=""):
    shift, rows = _digit_rows(obj, k, k.m, field)
    return TruncSeries(k, [k.from_digits(ds) for ds in rows], shift, None)


def eelem_to_obj(x):
    desc = x.desc
    k = desc.k
    if not (x.re.is_exact and x.im.is_exact):
        raise ValueError("only exact elements serialize losslessly")
    if desc.is_split:
        u, v = x.split_pair()
        return {"split": [series_to_obj(u), series_to_obj(v)]}
    # interleave (re, im) coefficient pairs as 2m-digit vectors over k'
    lo_candidates = [s.shift for s in (x.re, x.im) if s.coeffs]
    lo = min(lo_candidates) if lo_candidates else 0
    hi = max([s.shift + len(s.coeffs) for s in (x.re, x.im) if s.coeffs], default=lo)
    coeffs = []
    for i in range(lo, hi):
        coeffs.append(k.digits(x.re.coeff_at(i)) + k.digits(x.im.coeff_at(i)))
    return {"inert": {"shift": lo if coeffs else 0, "coeffs": coeffs}}


def eelem_from_obj(obj, desc, field=""):
    k = desc.k
    if desc.is_split:
        if not (isinstance(obj, dict) and "split" in obj):
            raise SchemaError(field, "expected {'split': [series, series]}")
        pair = obj["split"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(field + ".split", "expected two component series")
        u = series_from_obj(pair[0], k, field + ".split[0]")
        v = series_from_obj(pair[1], k, field + ".split[1]")
        return EElem.from_split_pair(desc, u, v)
    if not (isinstance(obj, dict) and "inert" in obj):
        raise SchemaError(field, "expected {'inert': series}")
    shift, rows = _digit_rows(obj["inert"], k, 2 * k.m, field + ".inert")
    res = [k.from_digits(ds[:k.m]) for ds in rows]
    ims = [k.from_digits(ds[k.m:]) for ds in rows]
    return EElem(desc, TruncSeries(k, res, shift, None),
                 TruncSeries(k, ims, shift, None))
