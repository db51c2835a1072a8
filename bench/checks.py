"""Explicit output checks for the benchmark.

Every check returns a list of problem strings; an empty list means the
record passed.  They are plain comparisons, never ``assert``, so they
still run under ``python -O``.  A record is a dict with the verdict
fields the checks need: ext, v, eta_delta, m, N and optionally target.
"""


def verdict_record(verdict, target=None):
    """The fields of a Verdict that the checks read."""
    return {"ext": verdict.ext, "v": verdict.v, "eta_delta": verdict.eta_delta,
            "m": list(verdict.m), "N": verdict.N, "target": target}


def eta_signed_sum(m, ext):
    """Sum of eta(pi)^i m_i, recomputed here: eta(pi) = +1 split, -1 inert."""
    sign = 1 if ext == "split" else -1
    return sum(c * sign ** i for i, c in enumerate(m))


def verdict_problems(rec):
    """Properties every verdict must have, whatever the instance."""
    out = []
    m, v, N, ext = rec["m"], rec["v"], rec["N"], rec["ext"]
    if len(m) != v + 1:
        return [f"m has {len(m)} buckets for v={v}"]
    if m[0] != 1 or m[v] != 1:
        out.append(f"m_0={m[0]}, m_v={m[v]}, both must be 1")
    if m != m[::-1]:
        out.append(f"m={m} is not palindromic")
    if rec.get("target") is not None and v != rec["target"]:
        out.append(f"v={v} but the sampler targeted {rec['target']}")
    want_eta = 1 if ext == "split" or v % 2 == 0 else -1
    if rec["eta_delta"] != want_eta:
        out.append(f"eta(Delta)={rec['eta_delta']} for {ext} v={v}")
    signed = eta_signed_sum(m, ext)
    if rec["eta_delta"] == 1:
        if signed != N:
            out.append(f"eta-signed sum {signed} != N={N}")
    elif signed != 0 or N != 0:
        out.append(f"eta(Delta)=-1 but signed sum {signed}, N={N}")
    if ext == "split" and sum(m) != N:
        out.append(f"split: sum(m)={sum(m)} != N={N}")
    return out


def dvr_problems(family, rec):
    """Closed forms of the DVR sampler families (n = 2, inert)."""
    m, v, N = rec["m"], rec["v"], rec["N"]
    out = []
    if family == "eisenstein":
        # totally ramified: the lattices form one chain
        if m != [1] * (v + 1):
            out.append(f"eisenstein m={m} is not all ones")
        want = 1 if v % 2 == 0 else 0
        if N != want:
            out.append(f"eisenstein N={N}, closed form {want}")
    elif family == "irreducible":
        # unramified of residue degree 2: only even colengths occur
        want_m = [1 - i % 2 for i in range(v + 1)]
        if v % 2 or m != want_m:
            out.append(f"irreducible m={m}, closed form {want_m}")
        if N != v // 2 + 1:
            out.append(f"irreducible N={N}, closed form {v // 2 + 1}")
    else:
        out.append(f"no closed form for family {family!r}")
    return out


def matrix_bucket_problems(buckets, m, v_A, v):
    """#X_i must equal m_(v(A)-i) bucket by bucket, and the totals agree."""
    out = []
    for i, cnt in sorted(buckets.items()):
        want = m[v_A - i] if 0 <= v_A - i <= v else 0
        if cnt != want:
            out.append(f"matrix bucket {i}: {cnt} lattices, m says {want}")
    if sum(buckets.values()) != sum(m):
        out.append(f"matrix buckets total {sum(buckets.values())} "
                   f"!= sum(m)={sum(m)}")
    return out


def equal_problems(what, got, want):
    return [] if got == want else [f"{what}: got {got}, expected {want}"]
