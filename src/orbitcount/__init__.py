"""Exact lattice counting over local function fields F_q((pi)).

The package verifies, by exact enumeration, that the eta-signed count
of order lattices equals the count of self-dual Hermitian lattices for
strongly regular invariant pairs (a, b), in both the Lie algebra and
the group normalizations.

Typical use:

    from orbitcount import field_desc, rand_invariants, verify_count_identity
    desc = field_desc(3, "inert")
    ab = rand_invariants(2, desc, target_val_delta=4, seed=7)
    verdict = verify_count_identity(ab)
    assert verdict.passed
"""

from .errors import (BudgetExceeded, GroupConstraintViolated,
                     NotStronglyRegular, PrecisionExhausted, SchemaError,
                     TargetUnreachable)
from .group_ring import build_group_order, group_counts, lie_transport
from .hermitian import (build_hermitian_quotient, count_selfdual,
                        selfdual_submodules, split_factor_check)
from .invariants import (InvariantPair, MatrixE, invariants_of,
                         strong_regularity, v_invariant)
from .local_field import EElem, FieldDesc, TruncSeries, field_desc
from .order_lattices import (build_order, build_quotient,
                             enumerate_stable_submodules, signed_sum,
                             stable_submodules, torsion_dual)
from .verify import (Verdict, auto_precision, dvr_closed_form,
                     instance_from_obj, instance_to_obj, matrix_orbit_oracle,
                     naive_subspace_oracle, oracle_checks,
                     rand_group_instance, rand_invariants, rand_sn_matrix,
                     sweep, verify_count_identity, verify_group_identity)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "EElem", "FieldDesc", "GroupConstraintViolated",
    "InvariantPair", "MatrixE", "NotStronglyRegular", "PrecisionExhausted",
    "SchemaError", "TargetUnreachable", "TruncSeries", "Verdict",
    "auto_precision", "build_group_order",
    "build_hermitian_quotient", "build_order", "build_quotient",
    "count_selfdual", "dvr_closed_form", "enumerate_stable_submodules",
    "field_desc", "group_counts", "instance_from_obj", "instance_to_obj",
    "invariants_of", "lie_transport", "matrix_orbit_oracle",
    "naive_subspace_oracle", "oracle_checks", "rand_group_instance",
    "rand_invariants", "rand_sn_matrix", "selfdual_submodules", "signed_sum",
    "split_factor_check", "stable_submodules", "strong_regularity", "sweep",
    "torsion_dual", "v_invariant", "verify_count_identity",
    "verify_group_identity",
]
