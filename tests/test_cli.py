import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vdbcode
from vdbcode import channel_sim, codegen, setgen
from vdbcode.channel_sim import GENERATOR_ID
from vdbcode.cli import main
from conftest import EXAMPLE_CONSTRAINT_TEXT, RECIPROCAL_CONSTRAINT_TEXT

P29_TABLE_TEXT = """\
format=vdb-table-v1
L=3
k=3
mode=iid
p=0.29
"""

REFERENCE_PERBIT_TABLE_TEXT = """\
format=vdb-table-v1
L=3
k=2
mode=perbit
p_0=0.4485
p_1=0.4011
p_2=0.2266
"""


@pytest.fixture
def example_constraint_file(tmp_path):
    path = tmp_path / "constraint.txt"
    path.write_text(EXAMPLE_CONSTRAINT_TEXT)
    return path


@pytest.fixture
def reciprocal_file(tmp_path):
    path = tmp_path / "recip.txt"
    path.write_text(RECIPROCAL_CONSTRAINT_TEXT)
    return path


def test_sets_both_methods_agree(tmp_path):
    out = tmp_path / "sets.txt"
    assert main(["sets", "--L", "3", "--k", "2", "--method", "both", "--out", str(out)]) == 0
    body = out.read_text().splitlines()
    assert body[:3] == ["format=vdb-sets-v1", "L=3", "k=2"]
    assert body[3:] == ["1,001", "1,011", "2,010", "2,110", "3,011", "3,101", "4,100", "5,101", "6,110"]


def test_sets_single_bit(tmp_path):
    out = tmp_path / "sets.txt"
    assert main(["sets", "--L", "1", "--k", "1", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == "1,1"


def test_sets_oracle_equivalence_midsize(tmp_path):
    out = tmp_path / "sets.txt"
    assert main(["sets", "--L", "10", "--k", "3", "--method", "both", "--out", str(out)]) == 0


def test_sets_rejects_bad_parameters(tmp_path):
    assert main(["sets", "--L", "0", "--k", "1", "--out", str(tmp_path / "x")]) == 2


def test_sets_method_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    import vdbcode.cli as cli
    from vdbcode.setgen import PlacementSets

    good = cli.setgen.sets_fast(3, 2)
    broken = PlacementSets(3, 2, {**good.sets, 3: {0b011}, 5: set()})  # drops 101 from S_3 and S_5
    monkeypatch.setattr(cli.setgen, "sets_fast", lambda L, k: broken)
    assert main(["sets", "--L", "3", "--k", "2", "--method", "both", "--out", str(tmp_path / "x")]) == 3
    assert "mismatch between fast and brute-force sets at m=[3, 5]" in capsys.readouterr().err


def test_bounds_csv(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--L", "8", "--k", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,z_exact,z_tight,z_loose"
    assert len(lines) == 225
    for line in lines[1:]:
        _, exact, tight, loose = map(int, line.split(","))
        assert exact <= tight <= loose


def test_encode_iid_reproduces_worked_example(tmp_path, example_constraint_file):
    out = tmp_path / "table.txt"
    assert main(["encode", "--constraint", str(example_constraint_file), "--mode", "iid", "--out", str(out)]) == 0
    body = out.read_text()
    p = float(next(l for l in body.splitlines() if l.startswith("p=")).split("=")[1])
    assert abs(p - 0.2180) <= 1e-3
    assert "# margin m=" in body


def test_encode_vacuous_constraint(tmp_path):
    path = tmp_path / "ones.txt"
    path.write_text("format=vdb-constraint-v1\nL=3\nk=2\n1,1\n")
    out = tmp_path / "table.txt"
    assert main(["encode", "--constraint", str(path), "--mode", "iid", "--out", str(out)]) == 0
    assert "p=1.0" in out.read_text()


def test_encode_perbit_then_verify(tmp_path, example_constraint_file):
    out = tmp_path / "table.txt"
    assert main(["encode", "--constraint", str(example_constraint_file), "--mode", "perbit", "--out", str(out)]) == 0
    assert main(["verify", "--constraint", str(example_constraint_file), "--table", str(out)]) == 0


@pytest.mark.parametrize("option,value", [("--tol", "1e-4"), ("--grid", "0.001")])
def test_encode_takes_no_solver_options(tmp_path, example_constraint_file, capsys, option, value):
    argv = ["encode", "--constraint", str(example_constraint_file), "--mode", "perbit"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, value, "--out", str(tmp_path / "t")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_encode_rejects_bad_constraint_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("format=vdb-constraint-v1\nL=3\nk=2\n1,0.1\n2,0.9\n")
    assert main(["encode", "--constraint", str(path), "--mode", "iid", "--out", str(tmp_path / "t")]) == 2
    assert "increases" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["encode", "verify", "simulate"])
def test_rising_budget_is_always_usage_error(tmp_path, capsys, command):
    path = tmp_path / "rising.txt"
    path.write_text("format=vdb-constraint-v1\nL=3\nk=2\n1,0.1\n2,0.9\n")
    table = tmp_path / "table.txt"
    table.write_text("format=vdb-table-v1\nL=3\nk=2\nmode=iid\np=0.1\n")
    argv = {
        "encode": ["encode", "--constraint", str(path), "--mode", "iid"],
        "verify": ["verify", "--constraint", str(path), "--table", str(table)],
        "simulate": ["simulate", "--constraint", str(path), "--table", str(table), "--trials", "10"],
    }[command]
    out = [] if command == "verify" else ["--out", str(tmp_path / "out")]
    assert main(argv + out) == 2
    assert capsys.readouterr().err == (
        "error: line 5: bound at m=2 (0.9) increases from m=1 (0.1) at line 4\n"
    )
    with pytest.raises(SystemExit) as exc:
        main(argv + out + ["--allow-nonmonotone"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-nonmonotone" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_encode_failed_self_check_is_exit_3(tmp_path, example_constraint_file, capsys, monkeypatch):
    monkeypatch.setattr(codegen._Rows, "allowance", lambda rows, lhs: np.full(lhs.shape, -2.0))
    out = tmp_path / "table.txt"
    assert main(["encode", "--constraint", str(example_constraint_file), "--mode", "iid", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: solver output failed re-verification: worst margin m=")
    assert err.count("\n") == 1
    assert not out.exists()


def test_encode_zero_denominator_bound_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("format=vdb-constraint-v1\nL=3\nk=2\n1,1/0\n")
    assert main(["encode", "--constraint", str(path), "--mode", "iid", "--out", str(tmp_path / "t")]) == 2
    assert "line 4: bad row '1,1/0'" in capsys.readouterr().err


def test_verify_reference_perbit_point(tmp_path, example_constraint_file):
    table = tmp_path / "reference.txt"
    table.write_text(REFERENCE_PERBIT_TABLE_TEXT)
    assert main(["verify", "--constraint", str(example_constraint_file), "--table", str(table)]) == 0


def test_verify_rejects_half(tmp_path, example_constraint_file):
    table = tmp_path / "half.txt"
    table.write_text("format=vdb-table-v1\nL=3\nk=2\nmode=iid\np=0.5\n")
    assert main(["verify", "--constraint", str(example_constraint_file), "--table", str(table)]) == 1


def test_verify_zero_table(tmp_path, example_constraint_file):
    table = tmp_path / "zero.txt"
    table.write_text("format=vdb-table-v1\nL=3\nk=2\nmode=iid\np=0\n")
    assert main(["verify", "--constraint", str(example_constraint_file), "--table", str(table)]) == 0


def test_verify_table_of_another_word_is_usage_error(tmp_path, example_constraint_file, capsys):
    table = tmp_path / "l4.txt"
    table.write_text("format=vdb-table-v1\nL=4\nk=2\nmode=iid\np=0.1\n")
    assert main(["verify", "--constraint", str(example_constraint_file), "--table", str(table)]) == 2
    assert capsys.readouterr() == ("", "error: table is (L=4, k=2) but constraint is (L=3, k=2)\n")


@pytest.mark.parametrize("solve", ["solve_perbit", "encode"])
def test_perbit_solve_builds_one_family_and_one_row_object(
    tmp_path, example_constraint, example_constraint_file, monkeypatch, solve
):
    # the per-bit solver walks its iid start on its own rows; it does not call solve_iid
    calls = {"sets_fast": 0, "_Rows": 0}
    sets_fast, init = setgen.sets_fast, codegen._Rows.__init__

    def counted_sets_fast(L, k):
        calls["sets_fast"] += 1
        return sets_fast(L, k)

    def counted_init(rows, c):
        calls["_Rows"] += 1
        init(rows, c)

    monkeypatch.setattr(setgen, "sets_fast", counted_sets_fast)
    monkeypatch.setattr(codegen._Rows, "__init__", counted_init)
    if solve == "solve_perbit":
        codegen.solve_perbit(example_constraint)
    else:
        argv = ["encode", "--constraint", str(example_constraint_file), "--mode", "perbit", "--out", str(tmp_path / "t")]
        assert main(argv) == 0
    assert calls == {"sets_fast": 1, "_Rows": 1}


def test_simulate_p29_passes(tmp_path, reciprocal_file):
    table = tmp_path / "p29.txt"
    table.write_text(P29_TABLE_TEXT)
    out = tmp_path / "dist.csv"
    code = main([
        "simulate", "--table", str(table), "--constraint", str(reciprocal_file),
        "--trials", "10000", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert "# provenance=monte_carlo" in text
    assert "# trials=10000" in text
    assert f"# generator={GENERATOR_ID}" in text.splitlines()


def test_simulate_zero_trials_usage_error(tmp_path, reciprocal_file):
    table = tmp_path / "p29.txt"
    table.write_text(P29_TABLE_TEXT)
    code = main([
        "simulate", "--table", str(table), "--constraint", str(reciprocal_file),
        "--trials", "0", "--out", str(tmp_path / "d.csv"),
    ])
    assert code == 2


def test_simulate_trials_beyond_int64_usage_error(tmp_path, reciprocal_file, capsys):
    table = tmp_path / "p29.txt"
    table.write_text(P29_TABLE_TEXT)
    out = tmp_path / "d.csv"
    code = main([
        "simulate", "--table", str(table), "--constraint", str(reciprocal_file),
        "--trials", str(2**63), "--out", str(out),
    ])
    assert code == 2
    assert "int64 limit" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_reported_perbit_point_passes(tmp_path, reciprocal_file):
    # the reported per-bit point, in the bit-order assignment that keeps
    # the simulated tail inside the budget
    table = tmp_path / "perbit.txt"
    table.write_text(
        "format=vdb-table-v1\nL=3\nk=3\nmode=perbit\np_0=0.44\np_1=0.25\np_2=0.31\n"
    )
    out = tmp_path / "dist.csv"
    code = main([
        "simulate", "--table", str(table), "--constraint", str(reciprocal_file),
        "--trials", "10000", "--seed", "0", "--out", str(out),
    ])
    assert code == 0


def test_simulate_cap_weight_mode(tmp_path, reciprocal_file):
    table = tmp_path / "p29.txt"
    table.write_text(P29_TABLE_TEXT)
    out = tmp_path / "dist.csv"
    code = main([
        "simulate", "--table", str(table), "--constraint", str(reciprocal_file),
        "--trials", "5000", "--seed", "0", "--cap-weight", "3", "--out", str(out),
    ])
    assert code == 0


def test_simulate_impossible_cap_weight_usage_error(tmp_path, reciprocal_file, capsys):
    table = tmp_path / "ones.txt"
    table.write_text("format=vdb-table-v1\nL=3\nk=3\nmode=iid\np=1.0\n")
    for cap in ("-1", "2"):
        code = main([
            "simulate", "--table", str(table), "--constraint", str(reciprocal_file),
            "--trials", "100", "--cap-weight", cap, "--out", str(tmp_path / "d.csv"),
        ])
        assert code == 2
    assert "weight <= 2" in capsys.readouterr().err


def test_distort_exact_zero_upsets(tmp_path):
    pmf = tmp_path / "pmf.csv"
    pmf.write_text("# L=3\nvalue,mass\n0,0.5\n5,0.5\n")
    upsets = tmp_path / "upsets.txt"
    upsets.write_text("format=vdb-upsets-v1\nL=3\n0,0,0\n1,0,0\n2,0,0\n")
    out = tmp_path / "fm.csv"
    assert main(["distort", "--pmf", str(pmf), "--upsets", str(upsets), "--mode", "exact", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "m,mass,tail" in lines
    assert "0,1.0,0.0" in lines


def test_distort_single_error_two_point(tmp_path):
    pmf = tmp_path / "pmf.csv"
    pmf.write_text("# L=3\nvalue,mass\n0,1.0\n")
    upsets = tmp_path / "upsets.txt"
    upsets.write_text("format=vdb-upsets-v1\nL=3\n0,0.2,1.0\n")
    out = tmp_path / "fm.csv"
    assert main(["distort", "--pmf", str(pmf), "--upsets", str(upsets), "--mode", "single-error", "--out", str(out)]) == 0
    text = out.read_text()
    assert "m,mass,tail,oracle_mass,abs_divergence" in text
    assert "# agreed=True" in text


def test_distort_single_error_keeps_a_rest_below_minus_1e9(tmp_path):
    # The PMF's fsum is 1 + n ulps, the largest double within 1e-9 of 1, but its running sum is
    # one ulp more, so the oracle's m = 0 rest is -(n + 1) ulps, past -1e-9.
    v, n = 2.0**-54, math.floor(1e-9 / 2.0**-52)
    pmf = tmp_path / "pmf.csv"
    pmf.write_text(f"# L=3\nvalue,mass\n0,{0.25 + 3 * v!r}\n2,0.25\n4,{0.5 + (4 * n - 2) * v!r}\n")
    upsets = tmp_path / "upsets.txt"
    upsets.write_text("format=vdb-upsets-v1\nL=3\n0,1.0,1.0\n")
    out = tmp_path / "fm.csv"
    assert main(["distort", "--pmf", str(pmf), "--upsets", str(upsets), "--mode", "single-error", "--out", str(out)]) == 0
    assert "# agreed=True" in out.read_text()


def test_distort_single_error_uniform_divergence_report(tmp_path):
    pmf = tmp_path / "pmf.csv"
    pmf.write_text("# L=3\nvalue,mass\n" + "\n".join(f"{v},0.125" for v in range(8)) + "\n")
    upsets = tmp_path / "upsets.txt"
    upsets.write_text("format=vdb-upsets-v1\nL=3\n0,0.3,0.5\n")
    out = tmp_path / "fm.csv"
    assert main(["distort", "--pmf", str(pmf), "--upsets", str(upsets), "--mode", "single-error", "--out", str(out)]) == 0
    text = out.read_text()
    assert "# max_abs_divergence=0.0" in text
    assert "# agreed=True" in text
    assert "1,0.15,0.0,0.15,0.0" in text.splitlines()


def test_verify_non_integer_table_header_is_usage_error(tmp_path, example_constraint_file, capsys):
    table = tmp_path / "t.txt"
    table.write_text(REFERENCE_PERBIT_TABLE_TEXT.replace("L=3", "L=three"))
    code = main(["verify", "--constraint", str(example_constraint_file), "--table", str(table)])
    assert code == 2
    assert "line 2: bad line 'L=three'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["pmf", "upsets"])
def test_distort_non_integer_header_is_usage_error(tmp_path, capsys, kind):
    pmf = tmp_path / "pmf.csv"
    pmf.write_text("# L=3\nvalue,mass\n0,1.0\n")
    upsets = tmp_path / "upsets.txt"
    upsets.write_text("format=vdb-upsets-v1\nL=3\n0,0.2,1.0\n")
    bad = {"pmf": pmf, "upsets": upsets}[kind]
    bad.write_text(bad.read_text().replace("L=3", "L=three"))
    code = main(["distort", "--pmf", str(pmf), "--upsets", str(upsets), "--out", str(tmp_path / "fm.csv")])
    assert code == 2
    assert "bad header" in capsys.readouterr().err


def test_ingest(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("1,9\n1,8\n2,7\n")
    out = tmp_path / "pmf.csv"
    assert main(["ingest", "--input", str(trace), "--column", "0", "--bits", "3", "--out", str(out)]) == 0
    text = out.read_text()
    assert "# L=3" in text and "# sample_count=3" in text
    assert "2,0.3333333333333333" in text


def test_ingest_range_error_reports_row(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("1\n9\n")
    assert main(["ingest", "--input", str(trace), "--column", "0", "--bits", "3", "--out", str(tmp_path / "o")]) == 2
    assert "row 2" in capsys.readouterr().err


@pytest.mark.parametrize("extra,message", [
    (["--column", "-1"], "column must be >= 0, got -1"),
    (["--column", "0", "--skip-header", "-1"], "skip_header must be >= 0, got -1"),
    # past sys.maxsize for the header islice and past an index for loadtxt's usecols
    (["--column", "0", "--skip-header", str(1 << 64)], "error: no samples\n"),
    (["--column", str(1 << 64)], "error: row 1: no column 18446744073709551616 (row has 2)\n"),
])
def test_ingest_negative_index_is_usage_error(tmp_path, capsys, extra, message):
    trace = tmp_path / "trace.csv"
    trace.write_text("1,2\n3,4\n")
    code = main(["ingest", "--input", str(trace), "--bits", "3", "--out", str(tmp_path / "o"), *extra])
    assert code == 2
    assert message in capsys.readouterr().err


def test_upsets_with_huge_word_length_is_usage_error(tmp_path, capsys):
    pmf, upsets = tmp_path / "pmf.csv", tmp_path / "upsets.txt"
    pmf.write_text("# L=3\nvalue,mass\n0,1.0\n")
    upsets.write_text(f"format=vdb-upsets-v1\nL={1 << 64}\n0,0.2,1.0\n")
    code = main(["distort", "--pmf", str(pmf), "--upsets", str(upsets), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: word_length must be in [1, 24], got {1 << 64}\n"


@pytest.mark.parametrize("command,option,text", [
    (["ingest", "--column", "1", "--bits", "4", "--skip-header", "1"], "--input", b"t,v\n1,\xe9\n"),
    # Past the first 8 KB decode buffer, so the byte is met inside np.loadtxt, not in the header.
    (["ingest", "--column", "1", "--bits", "4", "--skip-header", "1"], "--input",
     b"t,v\n" + b"1,2\n" * 4096 + b"1,\xe9\n"),
    (["encode", "--mode", "iid"], "--constraint", EXAMPLE_CONSTRAINT_TEXT.encode() + b"# \xe9\n"),
])
def test_an_input_that_is_not_utf8_is_usage_error(tmp_path, capsys, command, option, text):
    path = tmp_path / "input.bin"
    path.write_bytes(text)
    assert main([*command, option, str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_distort_nan_mass_is_usage_error(tmp_path, capsys):
    pmf = tmp_path / "pmf.csv"
    pmf.write_text("# L=2\nvalue,mass\n0,nan\n1,0.5\n")
    upsets = tmp_path / "upsets.txt"
    upsets.write_text("format=vdb-upsets-v1\nL=2\n0,0.1,0.5\n")
    out = tmp_path / "fm.csv"
    code = main(["distort", "--pmf", str(pmf), "--upsets", str(upsets), "--out", str(out)])
    assert code == 2
    assert "value 0 has mass nan" in capsys.readouterr().err
    assert not out.exists()


def test_distort_non_positive_sample_count_is_usage_error(tmp_path, capsys):
    pmf = tmp_path / "pmf.csv"
    pmf.write_text("# L=3\n# sample_count=-5\nvalue,mass\n0,0.5\n5,0.5\n")
    upsets = tmp_path / "upsets.txt"
    upsets.write_text("format=vdb-upsets-v1\nL=3\n0,0.1,0.5\n")
    out = tmp_path / "fm.csv"
    code = main(["distort", "--pmf", str(pmf), "--upsets", str(upsets), "--out", str(out)])
    assert code == 2
    assert "sample_count must be >= 1, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_negative_pmf_mass_is_usage_error(tmp_path, reciprocal_file, capsys):
    table = tmp_path / "p29.txt"
    table.write_text(P29_TABLE_TEXT)
    pmf = tmp_path / "pmf.csv"
    pmf.write_text("# L=3\nvalue,mass\n0,1.5\n1,-0.5\n")
    out = tmp_path / "dist.csv"
    code = main(["simulate", "--table", str(table), "--constraint", str(reciprocal_file),
                 "--trials", "100", "--pmf", str(pmf), "--out", str(out)])
    assert code == 2
    assert "value 1 has mass -0.5" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_written_and_replay_reproduces(tmp_path, example_constraint_file):
    out = tmp_path / "table.txt"
    assert main(["encode", "--constraint", str(example_constraint_file), "--mode", "iid", "--out", str(out)]) == 0
    manifest_path = tmp_path / "table.txt.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["subcommand"] == "encode"
    assert manifest["tool"] == "vdbcode"
    assert str(example_constraint_file) in manifest["inputs"]
    assert manifest["inputs"][str(example_constraint_file)].startswith("sha256:")
    original = out.read_bytes()
    out.unlink()
    assert main(["replay", "--manifest", str(manifest_path)]) == 0
    assert out.read_bytes() == original


def test_simulate_manifest_replay_bitwise(tmp_path, reciprocal_file):
    table = tmp_path / "p29.txt"
    table.write_text(P29_TABLE_TEXT)
    out = tmp_path / "dist.csv"
    args = [
        "simulate", "--table", str(table), "--constraint", str(reciprocal_file),
        "--trials", "2000", "--seed", "11", "--out", str(out),
    ]
    assert main(args) == 0
    original = out.read_bytes()
    out.unlink()
    assert main(["replay", "--manifest", str(out) + ".manifest.json"]) == 0
    assert out.read_bytes() == original


def test_consecutive_main_calls_share_no_state(tmp_path, reciprocal_file, capsys):
    # the parser is built once per process; options given in one call must
    # not carry into the next, which has to match a fresh process byte for byte
    table = tmp_path / "p29.txt"
    table.write_text(P29_TABLE_TEXT)
    pmf = tmp_path / "pmf.csv"
    pmf.write_text("# L=3\nvalue,mass\n0,0.5\n5,0.5\n")
    out = tmp_path / "dist.csv"
    common = ["simulate", "--table", str(table), "--constraint", str(reciprocal_file),
              "--trials", "3000", "--out", str(out)]
    main(common + ["--seed", "7", "--pmf", str(pmf), "--cap-weight", "2"])
    capsys.readouterr()
    assert main(common) == 0
    in_process = [out.read_bytes(), (tmp_path / "dist.csv.manifest.json").read_bytes()]
    stdout = capsys.readouterr().out
    assert "seed=0" in stdout.splitlines()[0]
    env = {**os.environ, "PYTHONPATH": str(Path(vdbcode.__file__).parents[1])}
    fresh = subprocess.run([sys.executable, "-m", "vdbcode.cli", *common], env=env,
                           capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0
    assert fresh.stdout == stdout
    assert [out.read_bytes(), (tmp_path / "dist.csv.manifest.json").read_bytes()] == in_process


# the guide-table sampler's id, the per-chunk multinomial sampler's, the per-chunk
# value multinomial sampler's, and the alias sampler's that drew a word for every trial
@pytest.mark.parametrize(
    "generator", ["pcg64-mask-table", "pcg64-multinomial", "pcg64-run-multinomial", "pcg64-run-alias"]
)
def test_replay_rejects_other_generator(tmp_path, reciprocal_file, capsys, generator):
    table = tmp_path / "p29.txt"
    table.write_text(P29_TABLE_TEXT)
    out = tmp_path / "dist.csv"
    assert main([
        "simulate", "--table", str(table), "--constraint", str(reciprocal_file),
        "--trials", "2000", "--seed", "11", "--out", str(out),
    ]) == 0
    manifest_path = tmp_path / "dist.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["formats"]["generator"] == GENERATOR_ID
    manifest["formats"]["generator"] = generator
    manifest_path.write_text(json.dumps(manifest))
    original = out.read_bytes()
    assert main(["replay", "--manifest", str(manifest_path)]) == 2
    assert "generator" in capsys.readouterr().err
    assert out.read_bytes() == original


def test_replay_rejects_drifted_inputs(tmp_path, example_constraint_file, capsys):
    out = tmp_path / "table.txt"
    assert main(["encode", "--constraint", str(example_constraint_file), "--mode", "iid", "--out", str(out)]) == 0
    example_constraint_file.write_text(EXAMPLE_CONSTRAINT_TEXT + "# drift\n")
    assert main(["replay", "--manifest", str(out) + ".manifest.json"]) == 2
    assert "digest" in capsys.readouterr().err


@pytest.mark.parametrize("option,value", [("grid", 0.001), ("tol", 0.0001), ("allow_nonmonotone", True)])
def test_replay_rejects_arguments_this_build_does_not_accept(
    tmp_path, example_constraint_file, capsys, option, value
):
    # a manifest from a build that still had `encode --grid`, `--tol` or `--allow-nonmonotone`
    out = tmp_path / "table.txt"
    assert main(["encode", "--constraint", str(example_constraint_file), "--mode", "perbit", "--out", str(out)]) == 0
    manifest_path = tmp_path / "table.txt.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["arguments"][option] = value
    manifest_path.write_text(json.dumps(manifest))
    original = out.read_bytes()
    assert main(["replay", "--manifest", str(manifest_path)]) == 2
    assert f"error: manifest argument --{option.replace('_', '-')} is not accepted" in capsys.readouterr().err
    assert out.read_bytes() == original


@pytest.mark.parametrize("command", ["encode", "simulate"])
def test_replay_of_a_manifest_recording_allow_nonmonotone_false(tmp_path, reciprocal_file, command):
    # manifests written while the option existed record it as false, which adds no argument
    table = tmp_path / "p29.txt"
    table.write_text(P29_TABLE_TEXT)
    out = tmp_path / "out.txt"
    argv = {
        "encode": ["encode", "--constraint", str(reciprocal_file), "--mode", "perbit"],
        "simulate": ["simulate", "--table", str(table), "--constraint", str(reciprocal_file), "--trials", "2000"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 0
    original = out.read_bytes()
    manifest_path = tmp_path / "out.txt.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert "allow_nonmonotone" not in manifest["arguments"]
    manifest["arguments"]["allow_nonmonotone"] = False
    manifest_path.write_text(json.dumps(manifest))
    out.unlink()
    assert main(["replay", "--manifest", str(manifest_path)]) == 0
    assert out.read_bytes() == original


@pytest.mark.parametrize("rewrite,message", [
    (lambda manifest, path: "format=vdb-table-v1\n", "is not JSON"),
    (lambda manifest, path: "[1, 2]\n", "is not a JSON object"),
    (lambda manifest, path: json.dumps({k: v for k, v in manifest.items() if k != "subcommand"}),
     "has no 'subcommand' string"),
    (lambda manifest, path: json.dumps({**manifest, "subcommand": "replay", "arguments": {"manifest": path}}),
     "records a replay"),
], ids=["not-json", "json-list", "no-subcommand", "replays-itself"])
def test_replay_of_a_malformed_manifest_is_usage_error(
    tmp_path, example_constraint_file, capsys, rewrite, message
):
    out = tmp_path / "table.txt"
    assert main(["encode", "--constraint", str(example_constraint_file), "--mode", "iid", "--out", str(out)]) == 0
    manifest_path = tmp_path / "table.txt.manifest.json"
    manifest_path.write_text(rewrite(json.loads(manifest_path.read_text()), str(manifest_path)))
    capsys.readouterr()
    assert main(["replay", "--manifest", str(manifest_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: manifest {manifest_path} {message}")


# ---------------------------------------------------------------------------
# Output text against the per-line formatting it replaced


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
                  -1e-310, 0.5, 2.5, 1e16, 123456789.123456789, -4.5e-11]


def test_percent_formats_match_the_f_string_specs():
    rng = np.random.default_rng(3)
    values = SPECIAL_FLOATS + (rng.standard_normal(2000) * 10.0 ** rng.integers(-30, 30, 2000)).tolist()
    for x in values:
        assert "%.6f" % x == f"{x:.6f}"
        assert "%.9g" % x == f"{x:.9g}"


def reference_verify_stdout(constraint_path, table_path):
    c = codegen.load_constraint(constraint_path)
    report = codegen.verify_table(codegen.load_table(table_path), c)
    lines = [f"m={m} margin={margin:.9g}" for m, margin in sorted(report.margins.items())]
    lines.append(f"verify: {'pass' if report.passed else 'FAIL'} (worst margin {report.worst:.9g})")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize(
    "table_text", [REFERENCE_PERBIT_TABLE_TEXT, "format=vdb-table-v1\nL=3\nk=2\nmode=iid\np=0.5\n"]
)
def test_verify_stdout_matches_per_line_reference(tmp_path, example_constraint_file, capsys, table_text):
    table = tmp_path / "table.txt"
    table.write_text(table_text)
    capsys.readouterr()
    main(["verify", "--constraint", str(example_constraint_file), "--table", str(table)])
    stdout = capsys.readouterr().out
    assert stdout == reference_verify_stdout(example_constraint_file, table)
    assert ("margin=-" in stdout) == ("p=0.5" in table_text)


def reference_simulate_stdout(table_path, constraint_path, trials, seed, pmf_path=None, cap=None):
    source = "uniform" if pmf_path is None else channel_sim.load_pmf_csv(pmf_path)
    result = channel_sim.simulate(codegen.load_table(table_path), codegen.load_constraint(constraint_path),
                                  trials, seed, source, cap_weight=cap)
    lines = [f"mode={result.mode} trials={trials} seed={seed}"]
    c = result.columns
    for m, mass, tail, bound, slack, ok in zip(
        c.m.tolist(), c.mass.tolist(), c.tail.tolist(), c.bound.tolist(), c.slack.tolist(),
        (c.mass_ok & c.tail_ok).tolist(),
    ):
        flag = "ok" if ok else "VIOLATION"
        lines.append(f"m={m} mass={mass:.6f} tail={tail:.6f} bound={bound:.6f} slack={slack:.6f} {flag}")
    lines.append(f"simulate: {'pass' if result.passed else 'FAIL'}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("p", ["0.29", "0.5"])
def test_simulate_stdout_and_manifest_match_per_line_reference(tmp_path, reciprocal_file, capsys, p):
    table = tmp_path / "table.txt"
    table.write_text(P29_TABLE_TEXT.replace("0.29", p))
    pmf = tmp_path / "pmf.csv"
    pmf.write_text("# L=3\nvalue,mass\n0,0.5\n5,0.25\n6,0.25\n")
    out = tmp_path / "dist.csv"
    variants = (([], None, None), (["--pmf", str(pmf)], pmf, None), (["--cap-weight", "2"], None, 2))
    for extra, pmf_path, cap in variants:
        capsys.readouterr()
        code = main(["simulate", "--table", str(table), "--constraint", str(reciprocal_file),
                     "--trials", "70001", "--seed", "4", "--out", str(out), *extra])
        stdout = capsys.readouterr().out
        assert stdout == reference_simulate_stdout(table, reciprocal_file, 70001, 4, pmf_path, cap)
        assert (code == 1) == ("VIOLATION" in stdout) == (p == "0.5")
        text = (tmp_path / "dist.csv.manifest.json").read_text()
        dumped = io.StringIO()
        json.dump(json.loads(text), dumped, indent=2, sort_keys=True)
        dumped.write("\n")
        assert text == dumped.getvalue()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "vdbcode" in text and "vdb-sets-v1" in text
    assert f"generator={GENERATOR_ID}" in text


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["verify", "--constraint", str(tmp_path / "nope"), "--table", str(tmp_path / "nope2")]) == 2


def test_audit_path_runs_without_the_mass_dicts(tmp_path, example_constraint_file, monkeypatch):
    # Producers and consumers read the law arrays; only callers outside the package read `.mass`.
    def unread(law):
        raise AssertionError(f"{type(law).__name__}.mass was read")

    monkeypatch.setattr(channel_sim._Law, "mass", property(unread))
    (tmp_path / "trace.csv").write_text("t,adc\n" + "".join(f"{t},{t * 5 % 11 - 4}\n" for t in range(40)))
    (tmp_path / "upsets.txt").write_text("format=vdb-upsets-v1\nL=3\n0,0.1,0.5\n1,0.2,0.3\n2,0.05,0.9\n")
    table = tmp_path / "table.txt"
    table.write_text(REFERENCE_PERBIT_TABLE_TEXT)
    pmf, upsets = str(tmp_path / "pmf.csv"), str(tmp_path / "upsets.txt")
    assert main(["ingest", "--input", str(tmp_path / "trace.csv"), "--column", "1", "--bits", "3",
                 "--offset", "4", "--clamp", "--skip-header", "1", "--out", pmf]) == 0
    for mode in ("exact", "single-error"):
        assert main(["distort", "--pmf", pmf, "--upsets", upsets, "--mode", mode,
                     "--out", str(tmp_path / f"{mode}.csv")]) == 0
    assert main(["simulate", "--table", str(table), "--constraint", str(example_constraint_file),
                 "--trials", "5000", "--seed", "3", "--pmf", pmf, "--out", str(tmp_path / "sim.csv")]) in (0, 1)

    law = channel_sim.load_pmf_csv(pmf)
    model = channel_sim.load_upsets(upsets)
    dist = channel_sim.exact_distortion(model, law)
    constraint = codegen.load_constraint(example_constraint_file)
    channel_sim.check_against_constraint(dist, constraint, 1000)
    channel_sim._mass_and_tail(dist)
    channel_sim.tail_of(dist)
    law.to_array()
    channel_sim.format_distribution_csv(dist)
    channel_sim.format_pmf_csv(law)
    channel_sim.analytic_single_error(law, model)
