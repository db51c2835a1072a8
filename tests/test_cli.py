"""In-process coverage of every subcommand and exit code."""

import json

import pytest

from orbitcount import cli, group_ring
from orbitcount.errors import GeneratorNotFound, InvariantViolation
from orbitcount.invariants import InvariantPair
from orbitcount.local_field import EElem, TruncSeries, field_desc
from orbitcount.verify import instance_to_obj


def test_gen_verify_roundtrip_lie(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    rc = cli.main(["gen", "--n", "2", "--q", "3", "--ext", "inert",
                   "--seed", "4", "--out", str(inst)])
    assert rc == 0
    obj = json.loads(inst.read_text())
    assert obj["n"] == 2
    assert obj["mode"] == "lie"
    assert obj["schema_version"] == 1

    rc = cli.main(["verify", str(inst)])
    verdict = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert verdict["pass"] is True
    assert verdict["mode"] == "lie"


def test_gen_verify_roundtrip_group(tmp_path, capsys):
    inst = tmp_path / "ginst.json"
    rc = cli.main(["gen", "--n", "2", "--q", "3", "--ext", "split",
                   "--mode", "group", "--seed", "1", "--out", str(inst)])
    assert rc == 0
    assert json.loads(inst.read_text())["mode"] == "group"

    rc = cli.main(["verify", str(inst)])
    verdict = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert verdict["mode"] == "group"
    assert verdict["pass"] is True


def test_gen_targeted_and_stdout(capsys):
    rc = cli.main(["gen", "--n", "1", "--q", "5", "--ext", "split",
                   "--seed", "2", "--target-val", "3"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["q"] == 5
    assert obj["ext"] == "split"


def test_verify_precision_override(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cli.main(["gen", "--n", "1", "--q", "3", "--ext", "inert",
              "--seed", "0", "--target-val", "1", "--out", str(inst)])
    capsys.readouterr()
    rc = cli.main(["verify", str(inst), "--precision", "12"])
    verdict = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert verdict["precision"] == 12


def test_sweep_csv_output(tmp_path):
    out = tmp_path / "rows.csv"
    rc = cli.main(["sweep", "--n", "1", "--q", "3", "--ext", "inert",
                   "--max-val", "3", "--count", "5", "--seed", "11",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    header = lines[1].split(",")
    assert header == ["seed", "n", "q", "ext", "v", "eta_delta",
                      "m_0", "m_1", "m_2", "m_3",
                      "signed_sum", "N", "pass", "wall_ms"]
    assert len(lines) == 7
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    assert all(r["pass"] == "true" for r in rows)
    for r in rows:
        int(r["wall_ms"])
        # buckets past v stay blank
        v = int(r["v"])
        assert all(r[f"m_{i}"] != "" for i in range(v + 1))
        assert all(r[f"m_{i}"] == "" for i in range(v + 1, 4))


def test_sweep_deterministic_across_jobs(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["sweep", "--n", "1", "--q", "3", "--ext", "split",
            "--max-val", "2", "--count", "4", "--seed", "9"]
    assert cli.main(base + ["--out", str(a)]) == 0
    assert cli.main(base + ["--jobs", "2", "--out", str(b)]) == 0

    def rows_sans_wall(path):
        return [ln.rsplit(",", 1)[0] for ln in path.read_text().splitlines()]

    assert rows_sans_wall(a) == rows_sans_wall(b)


def test_report_summary(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    cli.main(["sweep", "--n", "1", "--q", "3", "--ext", "inert",
              "--max-val", "2", "--count", "6", "--seed", "2",
              "--out", str(out)])
    capsys.readouterr()
    rc = cli.main(["report", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert text.startswith("rows: 6\n")
    assert "pass: 6/6 (100.0%)" in text
    assert "by configuration:" in text
    assert "n=1 q=3 inert: 6/6" in text
    assert "val Delta histogram:" in text
    assert "eta(Delta) histogram:" in text
    assert "#" in text


def test_oracle_lie_agreement(tmp_path, capsys):
    """Split rows print these lines as they did when the split Q_E was
    still stored in (re | im) coordinates.  The v = 4 row's self-dual
    scan tests the 20,102 O_E-submodules sum_a [4, a]_3 [4, 4 - a]_3."""
    agrees = ["naive submodule scan: agrees", "naive self-dual scan: agrees",
              "split factor bijection: agrees",
              "precision stability +1..+3: agrees",
              "agreement: all applicable oracles agree"]
    inst = tmp_path / "inst.json"
    for n, seed, v, verdict in [
            (1, 3, 2, "verdict: v=2 m=[1, 1, 1] signed_sum=3 N=3 pass=True"),
            (2, 1, 4,
             "verdict: v=4 m=[1, 2, 3, 2, 1] signed_sum=9 N=9 pass=True")]:
        cli.main(["gen", "--n", str(n), "--q", "3", "--ext", "split",
                  "--seed", str(seed), "--target-val", str(v),
                  "--out", str(inst)])
        capsys.readouterr()
        assert cli.main(["oracle", str(inst)]) == 0
        assert capsys.readouterr().out.splitlines() == [verdict] + agrees


def test_oracle_scans_readme_instance(tmp_path, capsys):
    """The README's oracle example: at v = 4 over q = 3, inert, the
    self-dual scan walks the 7,462 O_E-submodules of Q_E and runs."""
    inst = tmp_path / "inst.json"
    cli.main(["gen", "--n", "2", "--q", "3", "--ext", "inert",
              "--seed", "7", "--target-val", "4", "--out", str(inst)])
    capsys.readouterr()
    rc = cli.main(["oracle", str(inst)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "verdict: v=4 m=[1, 0, 1, 0, 1] signed_sum=3 N=3 pass=True" in text
    assert "naive self-dual scan: agrees" in text
    assert "skipped" not in text


def test_oracle_group_transport(tmp_path, capsys):
    inst = tmp_path / "g.json"
    cli.main(["gen", "--n", "1", "--q", "3", "--ext", "inert",
              "--mode", "group", "--seed", "5", "--out", str(inst)])
    capsys.readouterr()
    rc = cli.main(["oracle", str(inst)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "group verdict:" in text
    assert "lie transport:" in text
    assert "(agrees)" in text
    assert "agreement: all applicable oracles agree" in text


def test_deep_group_instance_escalates(tmp_path, capsys):
    # val Delta = 6 = 2n + 4: det G is 0 modulo the default precision 6,
    # which escalates instead of refusing the instance
    desc = field_desc(3, "split")
    b0 = EElem.from_real(desc, TruncSeries.pi_pow(desc.k, 6))
    inst = tmp_path / "deep.json"
    inst.write_text(json.dumps(instance_to_obj(
        InvariantPair([EElem.one(desc)], [b0], desc), mode="group")))
    rc = cli.main(["verify", str(inst)])
    verdict = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert (verdict["v"], verdict["N"], verdict["precision"]) == (6, 7, 12)
    assert verdict["pass"] is True
    rc = cli.main(["oracle", str(inst)])
    text = capsys.readouterr().out
    assert rc == 0
    assert text.rstrip().endswith("agreement: all applicable oracles agree")


def test_missing_file_is_schema_error(tmp_path, capsys):
    rc = cli.main(["verify", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    rc = cli.main(["verify", str(p)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_bad_field_size(tmp_path, capsys):
    p = tmp_path / "q4.json"
    p.write_text(json.dumps({"q": 4, "ext": "inert", "n": 1,
                             "a": [], "b": []}))
    rc = cli.main(["verify", str(p)])
    assert rc == 2
    assert "q:" in capsys.readouterr().err


def test_parity_violation_rejected(tmp_path, capsys):
    desc = field_desc(3, "inert")
    obj = instance_to_obj(InvariantPair([EElem.one(desc)],
                                        [EElem.one(desc)], desc))
    p = tmp_path / "parity.json"
    p.write_text(json.dumps(obj))
    rc = cli.main(["verify", str(p)])
    assert rc == 2
    assert "a[1]" in capsys.readouterr().err


def test_gen_group_mode_excludes_family(capsys):
    rc = cli.main(["gen", "--n", "1", "--q", "3", "--ext", "inert",
                   "--mode", "group", "--family", "eisenstein"])
    assert rc == 2
    assert "only apply to lie mode" in capsys.readouterr().err


def test_sweep_rejects_negative_max_val(capsys):
    rc = cli.main(["sweep", "--n", "1", "--q", "3", "--ext", "inert",
                   "--max-val", "-1", "--count", "1", "--seed", "0"])
    assert rc == 2
    assert "max-val" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "oracle", "sweep"])
@pytest.mark.parametrize("precision", ["0", "-3"])
def test_rejects_nonpositive_precision(tmp_path, capsys, command, precision):
    # an instance file's precision field rejects these values too
    inst = tmp_path / "inst.json"
    cli.main(["gen", "--n", "1", "--q", "3", "--ext", "inert",
              "--target-val", "2", "--out", str(inst)])
    args = ([command, str(inst)] if command != "sweep" else
            ["sweep", "--n", "1", "--q", "3", "--ext", "inert", "--max-val",
             "2", "--count", "1", "--seed", "0"])
    capsys.readouterr()
    assert cli.main(args + ["--precision", precision]) == 2
    captured = capsys.readouterr()
    assert "precision: expected a positive integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["verify", "oracle", "sweep"])
@pytest.mark.parametrize("precision", ["257", "50000"])
def test_rejects_precision_past_cap_before_work(tmp_path, capsys,
                                                monkeypatch, command,
                                                precision):
    # past the cap a verdict could run for minutes: refused before the
    # instance is read or any row drawn
    inst = tmp_path / "inst.json"
    cli.main(["gen", "--n", "1", "--q", "3", "--ext", "inert",
              "--target-val", "2", "--out", str(inst)])
    for name in ("verify_count_identity", "verify_group_identity",
                 "oracle_checks", "sweep"):
        monkeypatch.setattr(cli, name, None)
    args = ([command, str(inst)] if command != "sweep" else
            ["sweep", "--n", "1", "--q", "3", "--ext", "inert", "--max-val",
             "2", "--count", "1", "--seed", "0"])
    capsys.readouterr()
    assert cli.main(args + ["--precision", precision]) == 2
    captured = capsys.readouterr()
    assert "error: precision: expected at most 256" in captured.err
    assert captured.out == ""


def test_precision_at_cap_accepted(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cli.main(["gen", "--n", "1", "--q", "3", "--ext", "inert",
              "--target-val", "1", "--out", str(inst)])
    capsys.readouterr()
    assert cli.main(["verify", str(inst), "--precision", "256"]) == 0
    assert json.loads(capsys.readouterr().out)["precision"] == 256


def test_gen_rejects_negative_target_before_drawing(capsys, monkeypatch):
    draws = []
    monkeypatch.setattr(cli, "rand_invariants",
                        lambda *a, **kw: draws.append(a))
    rc = cli.main(["gen", "--n", "1", "--q", "3", "--ext", "inert",
                   "--target-val", "-1"])
    assert rc == 2
    assert "target-val: expected a nonnegative integer" in (
        capsys.readouterr().err)
    assert draws == []


def test_usage_and_help(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "verify" in out
    assert "sweep" in out


def test_budget_exit_code(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "deep.json"
    cli.main(["gen", "--n", "1", "--q", "3", "--ext", "split",
              "--seed", "1", "--target-val", "4", "--out", str(inst)])
    capsys.readouterr()
    monkeypatch.setenv("ORBITAL_BUDGET", "2")
    rc = cli.main(["verify", str(inst)])
    assert rc == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_identity_failure_exit_code(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "inst.json"
    cli.main(["gen", "--n", "1", "--q", "3", "--ext", "inert",
              "--seed", "0", "--out", str(inst)])
    capsys.readouterr()

    class Stub:
        passed = False

        def to_obj(self):
            return {"pass": False}

    monkeypatch.setattr(cli, "verify_count_identity",
                        lambda ab, precision=None: Stub())
    rc = cli.main(["verify", str(inst)])
    assert rc == 1
    assert json.loads(capsys.readouterr().out) == {"pass": False}


def test_generator_not_found_exit_code(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "g.json"
    cli.main(["gen", "--n", "2", "--q", "3", "--ext", "inert",
              "--mode", "group", "--seed", "1", "--out", str(inst)])
    capsys.readouterr()

    def exhausted(*args):
        raise GeneratorNotFound("no residual generator found")

    monkeypatch.setattr(group_ring, "_find_generator", exhausted)
    for command in ("verify", "oracle"):
        rc = cli.main([command, str(inst)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no residual generator found"), err


def test_invariant_violation_is_not_bad_input(tmp_path, capsys, monkeypatch):
    # a failed invariant is a bug in the package: exit 4 with its
    # traceback, neither 2 as for bad input nor 1 as for a failed identity
    inst = tmp_path / "inst.json"
    cli.main(["gen", "--n", "1", "--q", "3", "--ext", "inert",
              "--seed", "0", "--out", str(inst)])
    capsys.readouterr()

    def broken(ab, precision=None):
        raise InvariantViolation("torsion pairing is not perfect")

    monkeypatch.setattr(cli, "verify_count_identity", broken)
    rc = cli.main(["verify", str(inst)])
    assert rc == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):"), err
    assert ("InvariantViolation: torsion pairing is not perfect"
            in err.splitlines()[-1]), err


def test_field_size_is_bounded_before_tables(tmp_path, capsys):
    # q >= 512 is refused as bad input before any q x q table is built
    p = tmp_path / "q1021.json"
    p.write_text(json.dumps({"q": 1021, "ext": "split", "n": 1,
                             "a": [], "b": []}))
    for argv in (["verify", str(p)],
                 ["gen", "--n", "1", "--q", "521", "--ext", "split"],
                 ["sweep", "--n", "1", "--q", "521", "--ext", "inert",
                  "--max-val", "1", "--count", "1", "--seed", "0"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: q:"), captured.err
        assert captured.out == ""
