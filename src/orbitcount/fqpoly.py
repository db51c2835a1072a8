"""Polynomials over the residue field k = F_q.

A polynomial is a little-endian list of element indices of a GFTable k,
and every function takes that table.  Monic polynomials of one degree
are enumerated in index order: x^e + sum c_i x^i has index
sum c_i q^i.  The callers:

- ``gf`` picks the modulus of F_(p^m) as the first monic irreducible of
  degree m over F_p and multiplies with ``mulmod`` for its tables;
- ``verify``'s "irreducible" sampler keeps draws whose residual
  characteristic polynomial passes ``is_irreducible``;
- ``order_lattices`` slices a quotient by the ``irreducible_factors`` of
  T's minimal polynomial, and ``hermitian`` splits a slice by a square
  root of j^2 modulo a factor (``sqrt_mod``).
"""

from itertools import product

from .errors import InvariantViolation, require


def monic(deg, q):
    """The monic polynomials of degree deg over F_q, in index order."""
    for tail in product(range(q), repeat=deg):
        yield list(reversed(tail)) + [1]


def _trim(u):
    u = list(u)
    while u and u[-1] == 0:
        u.pop()
    return u


def quo_rem(num, den, k):
    """(quotient, remainder) of num by den, whose leading entry is nonzero.

    The remainder carries no trailing zeros, so it is [] when den divides
    num."""
    num = list(num)
    inv_lead = k.inv[den[-1]]
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        c = k.mul[num[i + len(den) - 1]][inv_lead]
        if c:
            quot[i] = c
            for j, d in enumerate(den):
                num[i + j] = k.sub[num[i + j]][k.mul[c][d]]
    return quot, _trim(num)


def mulmod(u, v, h, k):
    """u v modulo the monic h, as deg h coefficients."""
    n = len(h) - 1
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = k.add[out[i + j]][k.mul[a][b]]
    for i in range(len(out) - 1, n - 1, -1):
        c = out[i]
        if c:
            for j in range(n):
                out[i - n + j] = k.sub[out[i - n + j]][k.mul[c][h[j]]]
    out = out[:n]
    return out + [0] * (n - len(out))


def powmod(base, e, h, k):
    """base^e modulo the monic h, as deg h coefficients."""
    acc = [1] + [0] * (len(h) - 2)
    while e:
        if e & 1:
            acc = mulmod(acc, base, h, k)
        base = mulmod(base, base, h, k)
        e >>= 1
    return acc


def _coprime(u, v, k):
    """Whether gcd(u, v) is a unit; u, v need not be trimmed."""
    u, v = _trim(u), _trim(v)
    while v:
        u, v = v, quo_rem(u, v, k)[1]
    return len(u) == 1


def is_irreducible(h, k):
    """Rabin's test for a monic h of degree n >= 1 over F_q.

    h is irreducible exactly when x^(q^n) = x modulo h and
    x^(q^(n/r)) - x is prime to h for every prime r dividing n.
    """
    n = len(h) - 1
    if n == 1:
        return True
    # frob[i] = x^(q^i) mod h
    frob = [[0, 1] + [0] * (n - 2)]
    for _ in range(n):
        frob.append(powmod(frob[-1], k.q, h, k))
    x = frob[0]
    if frob[n] != x:
        return False
    primes = [r for r in range(2, n + 1)
              if n % r == 0 and all(r % d for d in range(2, r))]
    return all(_coprime([k.sub[a][b] for a, b in zip(frob[n // r], x)], h, k)
               for r in primes)


def irreducible_factors(poly, k):
    """Distinct monic irreducible factors of a monic poly, by degree and
    then index order.

    Trial division by every monic polynomial of degree 1, 2, .. in turn,
    each copy of a divisor stripped as it is found, so a divisor found
    at degree e has no factor of lower degree and is irreducible; what
    is left once no factor of degree at most half its own remains is
    irreducible too.
    """
    out = []
    rest = list(poly)
    e = 1
    while 2 * e < len(rest):
        for g in monic(e, k.q):
            quot, rem = quo_rem(rest, g, k)
            if rem:
                continue
            out.append(g)
            while not rem:
                rest = quot
                quot, rem = quo_rem(rest, g, k)
        e += 1
    if len(rest) > 1:
        out.append(rest)
    return out


def sqrt_mod(d, g, k):
    """r with r^2 = d modulo g, for d in k^* and g monic irreducible of
    degree f, or None when d is not a square in k[x]/(g).

    A square of k has its root in k.  A non-square of k is a square in
    k[x]/(g) exactly when f is even; then for y in k[x]/(g),
    w = y^((q^f - 1) / (2 (q - 1))) squares to the norm of y, which lies
    in k and is a non-square when y is one, so r is w times a root of
    d over that norm.
    """
    q = k.q
    f = len(g) - 1
    roots = {k.mul[s][s]: s for s in range(q)}
    if d in roots:
        return [roots[d]] + [0] * (f - 1)
    if f % 2:
        return None
    half = (q ** f - 1) // (q - 1) // 2
    for idx in range(q, q ** f):
        y = [idx // q ** a % q for a in range(f)]
        w = powmod(y, half, g, k)
        norm = mulmod(w, w, g, k)
        require(not any(norm[1:]), "y^((q^f-1)/2(q-1)) does not square into k")
        if norm[0] not in roots:
            s = roots[k.mul[d][k.inv[norm[0]]]]
            r = [k.mul[s][c] for c in w]
            require(mulmod(r, r, g, k) == [d] + [0] * (f - 1),
                    "square root of d is wrong")
            return r
    raise InvariantViolation("k[x]/(g) of even degree has no non-square")
