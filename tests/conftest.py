"""Shared fixtures and helpers for the test suite.

The acceptance sweep is session scoped because several end-to-end
checks consume the same batch: the pass-rate gate, the parity and
palindrome properties, and the extra-precision recomputation.
"""

import random
import time

import pytest
from hypothesis import settings

from orbitcount.hermitian import build_hermitian_quotient
from orbitcount.local_field import field_desc
from orbitcount.order_lattices import build_order, build_quotient
from orbitcount.verify import (auto_precision, escalate_precision,
                               rand_invariants, sweep)

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")

# p > n throughout: n = 3 only pairs with q = 5
SWEEP_CONFIGS = [
    (1, 3, "split"), (1, 3, "inert"), (1, 5, "split"), (1, 5, "inert"),
    (2, 3, "split"), (2, 3, "inert"), (2, 5, "split"), (2, 5, "inert"),
    (3, 5, "split"), (3, 5, "inert"),
]
SWEEP_COUNT = 200
SWEEP_MAX_VAL = 6
SWEEP_SEED = 7


@pytest.fixture(scope="session")
def sweep_results():
    """{(n, q, ext): rows} for the acceptance sweep, plus total wall time."""
    rows = {}
    t0 = time.monotonic()
    for n, q, ext in SWEEP_CONFIGS:
        rows[(n, q, ext)] = sweep(n, q, ext, SWEEP_MAX_VAL, SWEEP_COUNT,
                                  SWEEP_SEED)
    elapsed = time.monotonic() - t0
    return rows, elapsed


def regen_instance(row):
    """Rebuild the invariant pair behind a sweep row from its seed."""
    desc = field_desc(row["q"], row["ext"])
    target = random.Random(f"target:{row['seed']}").randint(0, SWEEP_MAX_VAL)
    return rand_invariants(row["n"], desc, target, seed=row["seed"])


def row_m(row):
    return [row[f"m_{i}"] for i in range(row["v"] + 1)]


def base_precision(n, v):
    # first escalation step of the verifier; coefficient exhaustion deeper
    # in the pipeline can push the landed precision higher still
    P = auto_precision(n)
    while P <= v:
        P = 2 * max(P, v + 1)
    return P


def build_pipeline(ab):
    """(order, quotient, hermitian quotient, precision) as the verifier
    would build them, including its doubling-on-exhaustion policy."""
    order = build_order(ab)

    def build(P):
        Q = build_quotient(order, P)
        return Q, build_hermitian_quotient(order, ab.desc, P, fq=Q)

    (Q, QE), P = escalate_precision(build, auto_precision(ab.n))
    return order, Q, QE, P
