"""Spans and work counters recorded around calls into the package's layers.

Nothing inside the package is edited: ``install`` replaces each layer's
public functions, in every module namespace that holds them, with a
wrapper that opens a span, and wraps three hot methods with counters.
A span's self time is its duration minus the part its child spans
cover, so a verdict's time is split between the layers it calls.
"""

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function, span name) for every wrapped public function
SPANS = [
    ("invariants", "strong_regularity", "invariants.regularity"),
    ("invariants", "delta_invariant", "invariants.regularity"),
    ("order_lattices", "build_order", "order_lattices.build_order"),
    ("order_lattices", "build_quotient", "order_lattices.quotient"),
    ("order_lattices", "quotient_from_gram", "order_lattices.quotient"),
    ("order_lattices", "enumerate_stable_submodules", "order_lattices.stable_walk"),
    ("hermitian", "build_hermitian_quotient", "hermitian.build"),
    ("hermitian", "count_selfdual", "hermitian.selfdual_walk"),
    ("hermitian", "split_factor_check", "hermitian.split_check"),
    ("verify", "verify_count_identity", "verify.verdict"),
    ("verify", "verify_group_identity", "verify.verdict"),
    ("verify", "rand_invariants", "verify.sampler"),
    ("verify", "rand_group_instance", "verify.sampler"),
    ("verify", "rand_sn_matrix", "verify.sampler"),
    ("verify", "naive_subspace_oracle", "verify.naive_scan"),
    ("verify", "matrix_orbit_oracle", "verify.matrix_oracle"),
    ("group_ring", "build_group_order", "group_ring.build"),
    ("group_ring", "group_counts", "group_ring.counts"),
    ("group_ring", "lie_transport", "group_ring.transport"),
]

# Spans whose work is entirely calls into other layers report their
# inclusive time: their self time would be call glue only.  The sampler
# is inclusive too, so that it accounts for the whole set-up.
INCLUSIVE = {"group_ring.counts", "verify.precision_recheck", "verify.sampler"}

# per-layer metric -> (kind, source); kinds: self/incl ms, count, ratio
LAYER_METRICS = {
    "invariants.regularity_ms": ("ms", "invariants.regularity"),
    "invariants.regularity_calls": ("count", "regularity_calls"),
    "order_lattices.build_order_ms": ("ms", "order_lattices.build_order"),
    "order_lattices.quotient_ms": ("ms", "order_lattices.quotient"),
    "local_field.series_mul_calls": ("count", "series_mul_calls"),
    "order_lattices.stable_walk_ms": ("ms", "order_lattices.stable_walk"),
    "order_lattices.stable_closures": ("count", "stable_closures"),
    "order_lattices.stable_nodes": ("count", "stable_nodes"),
    "order_lattices.nodes_per_closure": ("ratio", ("stable_nodes", "stable_closures")),
    "hermitian.build_ms": ("ms", "hermitian.build"),
    "hermitian.selfdual_walk_ms": ("ms", "hermitian.selfdual_walk"),
    "hermitian.selfdual_closures": ("count", "selfdual_closures"),
    "hermitian.selfdual_hits": ("count", "selfdual_hits"),
    "hermitian.hits_per_closure": ("ratio", ("selfdual_hits", "selfdual_closures")),
    "kspace.insert_calls": ("count", "insert_calls"),
    "verify.escalations": ("count", "escalations"),
    "verify.sampler_ms": ("ms", "verify.sampler"),
    "verify.naive_scan_ms": ("ms", "verify.naive_scan"),
    "verify.naive_subspaces": ("count", "naive_subspaces"),
    "verify.matrix_oracle_ms": ("ms", "verify.matrix_oracle"),
    "verify.precision_recheck_ms": ("ms", "verify.precision_recheck"),
    "hermitian.split_check_ms": ("ms", "hermitian.split_check"),
    "group_ring.build_ms": ("ms", "group_ring.build"),
    "group_ring.counts_ms": ("ms", "group_ring.counts"),
    "group_ring.transport_ms": ("ms", "group_ring.transport"),
}


def gaussian_binomial(n, d, q):
    """Number of d-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def naive_scan_size(Q):
    """Subspaces the naive oracle scans: every dimension of Q, or the
    half dimension of a Hermitian double."""
    q = Q.space.k.q
    if hasattr(Q, "herm_re"):
        return gaussian_binomial(2 * Q.v, Q.v, q)
    return sum(gaussian_binomial(Q.v, d, q) for d in range(Q.v + 1))


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self):
        self.op = None          # identifier shared by the spans of one op
        self.keep_spans = True
        self.spans = []         # (op, id, parent, name, start, end)
        self._stack = []        # open spans: [name, start, child_s, id]
        self._next_id = 0
        self._verdicts = []     # quotient builds per open verdict
        self.active = defaultdict(int)
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)

    def enter(self, name):
        if name == "verify.verdict":
            self._verdicts.append(0)
        elif (name == "order_lattices.quotient" and self._verdicts
              and not self.active[name]):
            self._verdicts[-1] += 1
        self.active[name] += 1
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def exit(self):
        end = time.perf_counter()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        self.active[name] -= 1
        if self._stack:
            self._stack[-1][2] += dur
        if name == "verify.verdict":
            self.counts["escalations"] += max(0, self._verdicts.pop() - 1)
        if self.keep_spans:
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append((self.op, sid, parent, name, start, end))

    @contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def layer_metrics(self):
        out = {}
        for metric, (kind, src) in LAYER_METRICS.items():
            if kind == "ms":
                table = self.incl_s if src in INCLUSIVE else self.self_s
                out[metric] = 1000.0 * table[src]
            elif kind == "count":
                out[metric] = self.counts[src]
            else:
                num, den = (self.counts[s] for s in src)
                out[metric] = num / den if den else 0.0
        return out


def _spanned(tracer, fn, name, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(args, result)
        return result
    return traced


def _counted(tracer, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        count(tracer.counts)
        return fn(*args, **kwargs)
    return traced


def _count_closure(tracer):
    def count(counts):
        # EchelonBasis.key is called once per closed line (and once for
        # the zero seed) in both walks
        if tracer.active["order_lattices.stable_walk"]:
            counts["stable_closures"] += 1
        if tracer.active["hermitian.selfdual_walk"]:
            counts["selfdual_closures"] += 1
    return count


def install(tracer, extra_modules=()):
    """Wrap the layer functions and hot methods; returns nothing to undo,
    since a traced benchmark process stays traced until it exits."""
    from orbitcount.kspace import EchelonBasis
    from orbitcount.local_field import TruncSeries

    def bump(key, amount):
        def after(args, result):
            tracer.counts[key] += amount(args, result)
        return after

    after = {
        "strong_regularity": bump("regularity_calls", lambda a, r: 1),
        "enumerate_stable_submodules": bump("stable_nodes", lambda a, r: sum(r)),
        "count_selfdual": bump("selfdual_hits", lambda a, r: r),
        "naive_subspace_oracle": bump("naive_subspaces",
                                      lambda a, r: naive_scan_size(a[0])),
    }
    modules = [m for name, m in sys.modules.items()
               if name == "orbitcount" or name.startswith("orbitcount.")]
    modules += list(extra_modules)
    for modname, fname, span in SPANS:
        original = getattr(sys.modules["orbitcount." + modname], fname)
        wrapper = _spanned(tracer, original, span, after.get(fname))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)

    def add(key):
        def count(counts):
            counts[key] += 1
        return count

    TruncSeries.__mul__ = _counted(tracer, TruncSeries.__mul__,
                                   add("series_mul_calls"))
    EchelonBasis.insert = _counted(tracer, EchelonBasis.insert,
                                   add("insert_calls"))
    EchelonBasis.key = _counted(tracer, EchelonBasis.key,
                                _count_closure(tracer))
