"""Command line front end.

Subcommands:
  verify    check one instance file against the counting identity
  sweep     run a batch of seeded random instances, emit a CSV table
  gen       emit a random instance as JSON
  oracle    cross-check one instance against the slow oracles
  report    summarize a sweep CSV

Exit codes: 0 success, 1 the identity fails, 2 bad input or usage,
3 enumeration budget exceeded, 4 an internal invariant failed (a bug,
reported with its traceback on stderr).  The environment variable
ORBITAL_BUDGET caps the candidate lines of each subspace walk and the
candidate count of the naive scans.
"""

import argparse
import csv
import io
import json
import sys
import traceback

from .errors import (BudgetExceeded, InvariantViolation, OrbitCountError,
                     SchemaError)
from .local_field import field_desc
from .verify import (PRECISION_CAP, SCHEMA_VERSION, instance_from_obj,
                     instance_to_obj, oracle_checks, rand_group_instance,
                     rand_invariants, sweep, verify_count_identity,
                     verify_group_identity)

# (least, greatest) value of each integer option, None for no bound
_BOUNDS = {"n": (1, None), "count": (1, None), "jobs": (1, None),
           "precision": (1, PRECISION_CAP), "max_val": (0, None),
           "target_val": (0, None)}


def _parser():
    ap = argparse.ArgumentParser(
        prog="orbitcount",
        description="Exact verifier for the eta-signed lattice counting "
                    "identity over local function fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check one instance file")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--precision", type=int,
                   help="override the automatic series precision")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="run seeded random instances, write CSV")
    p.add_argument("--n", type=int, required=True, help="matrix size")
    p.add_argument("--q", type=int, required=True, help="residue field size")
    p.add_argument("--ext", choices=("split", "inert"), required=True)
    p.add_argument("--max-val", type=int, required=True, dest="max_val",
                   help="largest val Delta to target")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--precision", type=int)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gen", help="emit a random instance as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ext", choices=("split", "inert"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("lie", "group"), default="lie")
    p.add_argument("--family",
                   choices=("generic", "eisenstein", "irreducible"),
                   default="generic")
    p.add_argument("--target-val", type=int, dest="target_val",
                   help="exact val Delta to hit")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle",
                       help="cross-check an instance against slow oracles")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--precision", type=int)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("report", help="summarize a sweep CSV")
    p.add_argument("csv", help="CSV file produced by sweep")
    p.set_defaults(func=_cmd_report)
    return ap


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (None, 0) else 2
    try:
        _check_bounds(args)
        return args.func(args)
    except BudgetExceeded as e:
        print(f"error: budget exceeded: {e}", file=sys.stderr)
        return 3
    except InvariantViolation:
        # a bug, not bad input and not a failed identity: keep the traceback
        traceback.print_exc()
        return 4
    except (OrbitCountError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _load_instance(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise SchemaError(path, f"cannot read: {e.strerror or e}")
    except json.JSONDecodeError as e:
        raise SchemaError(path, f"not valid JSON: {e}")
    return instance_from_obj(obj)


def _write_text(path, text):
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args):
    ab, mode = _load_instance(args.instance)
    if mode == "group":
        verdict = verify_group_identity(ab, precision=args.precision)
    else:
        verdict = verify_count_identity(ab, precision=args.precision)
    print(json.dumps(verdict.to_obj(), indent=2))
    return 0 if verdict.passed else 1


def _check_bounds(args):
    """SchemaError unless each integer option given lies in its _BOUNDS,
    checked before any work."""
    for name, (low, high) in _BOUNDS.items():
        value = getattr(args, name, None)
        if value is None:
            continue
        if value < low:
            kind = "positive" if low else "nonnegative"
            raise SchemaError(name.replace("_", "-"),
                              f"expected a {kind} integer")
        if high is not None and value > high:
            raise SchemaError(name.replace("_", "-"),
                              f"expected at most {high}")


def _cell(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.1f}"
    return x


def _rows_to_csv(rows, max_val):
    cols = ["seed", "n", "q", "ext", "v", "eta_delta"]
    cols += [f"m_{i}" for i in range(max_val + 1)]
    cols += ["signed_sum", "N", "pass", "wall_ms"]
    buf = io.StringIO()
    buf.write(f"# schema_version={SCHEMA_VERSION}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cols)
    for r in rows:
        w.writerow([_cell(r.get(c)) for c in cols])
    return buf.getvalue()


def _cmd_sweep(args):
    field_desc(args.q, args.ext)
    rows = sweep(args.n, args.q, args.ext, args.max_val, args.count,
                 args.seed, precision=args.precision, jobs=args.jobs)
    rows.sort(key=lambda r: r["seed"])
    _write_text(args.out, _rows_to_csv(rows, args.max_val))
    return 0 if all(r["pass"] for r in rows) else 1


def _cmd_gen(args):
    desc = field_desc(args.q, args.ext)
    if args.mode == "group":
        if args.family != "generic" or args.target_val is not None:
            raise SchemaError(
                "mode", "family and target-val only apply to lie mode")
        ab = rand_group_instance(args.n, desc, seed=args.seed)
    else:
        ab = rand_invariants(args.n, desc, target_val_delta=args.target_val,
                             seed=args.seed, family=args.family)
    text = json.dumps(instance_to_obj(ab, args.mode), indent=2) + "\n"
    _write_text(args.out, text)
    return 0


def _cmd_oracle(args):
    ab, mode = _load_instance(args.instance)
    ok, lines = oracle_checks(ab, mode, precision=args.precision)
    print("\n".join(lines))
    return 0 if ok else 1


def _num_key(s):
    try:
        return (0, int(s))
    except ValueError:
        return (1, s)


def _cmd_report(args):
    try:
        with open(args.csv) as fh:
            data = [ln for ln in fh if not ln.startswith("#")]
    except OSError as e:
        raise SchemaError(args.csv, f"cannot read: {e.strerror or e}")
    rdr = csv.DictReader(io.StringIO("".join(data)))
    rows = list(rdr)
    if not rows:
        raise SchemaError(args.csv, "no data rows")
    needed = ("seed", "n", "q", "ext", "v", "eta_delta",
              "signed_sum", "N", "pass")
    for col in needed:
        if col not in (rdr.fieldnames or ()):
            raise SchemaError(col, "missing CSV column")

    total = len(rows)
    passed = sum(1 for r in rows if r["pass"] == "true")
    print(f"rows: {total}")
    print(f"pass: {passed}/{total} ({100.0 * passed / total:.1f}%)")

    configs = {}
    for r in rows:
        key = f"n={r['n']} q={r['q']} {r['ext']}"
        tot, good = configs.get(key, (0, 0))
        configs[key] = (tot + 1, good + (r["pass"] == "true"))
    print("by configuration:")
    for key in sorted(configs):
        tot, good = configs[key]
        print(f"  {key}: {good}/{tot}")

    for title, col in (("val Delta histogram", "v"),
                       ("eta(Delta) histogram", "eta_delta")):
        counts = {}
        for r in rows:
            counts[r[col]] = counts.get(r[col], 0) + 1
        widest = max(counts.values())
        print(f"{title}:")
        for key in sorted(counts, key=_num_key):
            bar = "#" * max(1, round(28 * counts[key] / widest))
            print(f"  {key:>4} {counts[key]:>6}  {bar}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
