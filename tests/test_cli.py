"""End-to-end tests for the command-line front end."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import netquery
from netquery.cli import main
from netquery.fixtures import (
    ROUTING_TABLE_PROGRAM,
    SPANNING_TREE_TEXT,
    TRANSITIVE_CLOSURE_DATALOG,
)
from netquery.logic import parse_fixpoint, print_fixpoint, relativize_fixpoint
from netquery.oracle import path_graph, ring_graph
from netquery.simnet import network_text

TC1_TEXT = print_fixpoint(
    relativize_fixpoint(
        parse_fixpoint("mu T(x,y). G(x,y) | exists z. (T(x,z) & G(z,y))"), 1
    )
)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def path3(tmp_path):
    p = tmp_path / "path3.net"
    p.write_text(network_text(path_graph(3).with_unary({"ReqNode": [1]})))
    return str(p)


@pytest.fixture
def ring4(tmp_path):
    p = tmp_path / "ring4.net"
    p.write_text(network_text(ring_graph(4)))
    return str(p)


def test_fixtures_stdout_and_files(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "fixtures", "path", "3")
    assert code == 0
    assert out == network_text(path_graph(3))
    code, out, _ = run_cli(
        capsys, "fixtures", "all", "3", "--out", str(tmp_path / "g")
    )
    assert code == 0
    written = list((tmp_path / "g").glob("*.net"))
    assert len(written) > 1 and "wrote" in out


def test_fixtures_ring_needs_three_nodes(capsys):
    code, out, err = run_cli(capsys, "fixtures", "ring", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_fixtures_grid_needs_positive_side(capsys):
    for side in ("0", "-1", "-3"):
        code, out, err = run_cli(capsys, "fixtures", "grid", side)
        assert (code, out) == (2, "")
        assert err.startswith("error: a grid needs at least one row")


def test_fixtures_one_node_grid(capsys):
    code, out, _ = run_cli(capsys, "fixtures", "grid", "1")
    assert (code, out) == (0, "1 0\n")


def test_oracle_fo_table_and_csv(capsys, path3):
    code, out, _ = run_cli(
        capsys, "oracle-fo", "--net", path3, "--query", "exists y. G(x,y)"
    )
    assert code == 0
    assert "result: arity 1, 3 tuples" in out
    assert out.index("(1)") < out.index("(2)") < out.index("(3)")
    code, out, _ = run_cli(
        capsys,
        "oracle-fo",
        "--net",
        path3,
        "--query",
        "exists y. G(x,y)",
        "--format",
        "csv",
    )
    assert code == 0
    assert out.splitlines() == ["result,1", "result,2", "result,3"]


def test_oracle_fp_final_stage(capsys, path3):
    code, out, _ = run_cli(
        capsys,
        "oracle-fp",
        "--net",
        path3,
        "--query",
        "mu T(x,y). G(x,y) | exists z. (T(x,z) & G(z,y))",
    )
    assert code == 0
    assert "arity 2, 9 tuples" in out


def test_qe_fo_report_sections_and_determinism(capsys, path3):
    argv = (
        "qe-fo", "--net", path3, "--query", "exists y. G(x,y)",
        "--req", "1",
    )
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    for needle in (
        "result:", "placement:", "IN-TIME/ROUND", "DIST-TIME",
        "MSG-SIZE", "#MSG/NODE[1]",
    ):
        assert needle in first
    assert first.index("IN-TIME/ROUND") < first.index("DIST-TIME")
    assert first.index("DIST-TIME") < first.index("MSG-SIZE")
    assert first.index("MSG-SIZE") < first.index("#MSG/NODE[1]")
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0 and second == first


QE_FO_QUERY = "G(x,y) & (x >= y | y = 3)"
NETLOG_PROGRAM = (
    "^Heard(@y,x) :- G(@x,y), ReqNode(@x). "
    "Nb(@x,y) :- G(@x,y), ReqNode(@x). "
    "Self(@x) :- ReqNode(@x)."
)


@pytest.mark.parametrize(
    "argv, table, csv",
    [
        (
            ("qe-fo", "--query", QE_FO_QUERY, "--req", "1"),
            [
                "result: arity 2, 3 tuples",
                "  (2,1)",
                "  (2,3)",
                "  (3,2)",
                "placement:",
                "  node 1: ",
                "  node 2: (2,1) (2,3)",
                "  node 3: (3,2)",
                "IN-TIME/ROUND              44",
                "DIST-TIME                   7",
                "MSG-SIZE                  220",
                "#MSG/NODE[1]               31",
                "#MSG/NODE[2]               62",
                "#MSG/NODE[3]               31",
            ],
            [
                "result,2,1",
                "result,2,3",
                "result,3,2",
                "placement,2,2,1",
                "placement,2,2,3",
                "placement,3,3,2",
                "measure,node,value",
                "IN-TIME/ROUND,,44",
                "DIST-TIME,,7",
                "MSG-SIZE,,220",
                "#MSG/NODE,1,31",
                "#MSG/NODE,2,62",
                "#MSG/NODE,3,31",
            ],
        ),
        (
            ("netlog-run", "--query", NETLOG_PROGRAM),
            [
                "facts: 3",
                "  Heard(2,1)",
                "  Nb(1,2)",
                "  Self(1)",
                "placement:",
                "  node 1: Nb(1,2) Self(1)",
                "  node 2: Heard(2,1)",
                "  node 3: ",
                "IN-TIME/ROUND               4",
                "DIST-TIME                   2",
                "MSG-SIZE                   12",
                "#MSG/NODE[1]                2",
                "#MSG/NODE[2]                0",
                "#MSG/NODE[3]                0",
            ],
            [
                "fact,Heard,2,1",
                "fact,Nb,1,2",
                "fact,Self,1",
                "placement,1,Nb,1,2",
                "placement,1,Self,1",
                "placement,2,Heard,2,1",
                "measure,node,value",
                "IN-TIME/ROUND,,4",
                "DIST-TIME,,2",
                "MSG-SIZE,,12",
                "#MSG/NODE,1,2",
                "#MSG/NODE,2,0",
                "#MSG/NODE,3,0",
            ],
        ),
    ],
    ids=["qe-fo", "netlog-run"],
)
def test_report_exact_stdout(capsys, path3, argv, table, csv):
    # The metrics report ends in a newline and print adds one more.
    for fmt, lines in (("table", table), ("csv", csv)):
        code, out, err = run_cli(
            capsys, argv[0], "--net", path3, *argv[1:], "--format", fmt
        )
        assert (code, err) == (0, "")
        assert out == "\n".join(lines) + "\n\n"


def test_qe_fo_check_passes(capsys, path3):
    code, out, _ = run_cli(
        capsys,
        "qe-fo", "--net", path3, "--query", "exists y. G(x,y)",
        "--req", "2", "--check",
    )
    assert code == 0 and "CHECK OK" in out


def test_qe_fp_check_passes(capsys, path3, tmp_path):
    q = tmp_path / "span.q"
    q.write_text(SPANNING_TREE_TEXT)
    code, out, _ = run_cli(
        capsys,
        "qe-fp", "--net", path3, "--query", str(q), "--req", "1", "--check",
    )
    assert code == 0 and "CHECK OK" in out
    assert "(1,2)" in out and "(2,3)" in out


def test_qe_fo_loc_all_identity_modes(capsys, ring4, tmp_path):
    labels = tmp_path / "ring4.labels"
    labels.write_text("1 10\n2 20\n3 30\n4 40\n")
    base = (
        "qe-fo-loc", "--net", ring4, "--query",
        "exists y in N^1(x). G(x,y)", "--req", "1", "--check",
    )
    for extra in (
        (),
        ("--identity", "anonymous"),
        ("--identity", "local-consistent:1", "--labels", str(labels)),
    ):
        code, out, _ = run_cli(capsys, *base, *extra)
        assert code == 0 and "CHECK OK" in out, extra


def test_qe_fp_loc_anonymous_check(capsys, ring4):
    code, out, _ = run_cli(
        capsys,
        "qe-fp-loc", "--net", ring4, "--query", TC1_TEXT,
        "--req", "2", "--identity", "anonymous", "--check",
    )
    assert code == 0 and "CHECK OK" in out
    assert "arity 2, 12 tuples" in out


def test_netlog_run_facts_and_check(capsys, ring4, tmp_path):
    prog = tmp_path / "rt.nl"
    prog.write_text(ROUTING_TABLE_PROGRAM)
    code, out, _ = run_cli(
        capsys,
        "netlog-run", "--net", ring4, "--query", str(prog), "--check",
    )
    assert code == 0 and "CHECK OK" in out
    assert "facts:" in out and "placement:" in out and "DIST-TIME" in out


def test_datalog_run_final_facts(capsys, path3, tmp_path):
    prog = tmp_path / "tc.dl"
    prog.write_text(TRANSITIVE_CLOSURE_DATALOG)
    code, out, _ = run_cli(
        capsys, "datalog-run", "--net", path3, "--query", str(prog)
    )
    assert code == 0
    assert "T(1,3)" in out and "T(3,1)" in out


def test_compile_emits_header_and_delta_default(capsys, path3, tmp_path):
    prog = tmp_path / "tc.dl"
    prog.write_text(TRANSITIVE_CLOSURE_DATALOG)
    code, out, _ = run_cli(
        capsys, "compile", "--query", str(prog), "--delta", "2"
    )
    assert code == 0
    assert out.splitlines()[0] == "% kappa=2 delta=2"
    code, out, _ = run_cli(capsys, "compile", "--query", str(prog),
                           "--net", path3)
    assert code == 0
    assert out.splitlines()[0] == "% kappa=2 delta=2"


def test_check_consistent_yes_and_no(capsys, ring4, tmp_path):
    good = tmp_path / "good.labels"
    good.write_text("1 10\n2 20\n3 30\n4 40\n")
    code, out, _ = run_cli(
        capsys, "check-consistent", "--net", ring4, "--labels", str(good),
        "--radius", "1",
    )
    assert code == 0 and "yes" in out
    bad = tmp_path / "bad.labels"
    bad.write_text("1 10\n2 10\n3 30\n4 40\n")
    code, out, _ = run_cli(
        capsys, "check-consistent", "--net", ring4, "--labels", str(bad),
        "--radius", "1",
    )
    assert code == 1 and "no" in out


def test_labels_need_local_consistent_identity(capsys, path3, tmp_path):
    labels = tmp_path / "p3.labels"
    labels.write_text("1 10\n2 20\n3 30\n")
    query = ("--query", "exists y. G(x,y)")
    for argv in (
        ("qe-fo", "--net", path3, *query, "--req", "1"),
        ("qe-fo-loc", "--net", path3, "--query", "exists y in N^1(x). G(x,y)",
         "--req", "1", "--identity", "anonymous"),
        ("netlog-run", "--net", path3, "--query", ROUTING_TABLE_PROGRAM),
    ):
        code, out, err = run_cli(capsys, *argv, "--labels", str(labels))
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "--labels" in err, argv


def test_labels_of_unknown_nodes_are_rejected(capsys, path3, tmp_path):
    labels = tmp_path / "p3.labels"
    labels.write_text("1 10\n2 20\n3 30\n99 5\n")
    code, out, err = run_cli(
        capsys, "check-consistent", "--net", path3, "--labels", str(labels),
    )
    assert (code, out) == (2, "")
    assert err == "error: label map names unknown nodes [99]\n"
    code, out, err = run_cli(
        capsys, "qe-fo-loc", "--net", path3, "--query",
        "exists y in N^1(x). G(x,y)", "--req", "1",
        "--identity", "local-consistent:1", "--labels", str(labels),
    )
    assert (code, out) == (2, "")
    assert err == "error: label map names unknown nodes [99]\n"


def test_check_consistent_rejects_nonpositive_radius(capsys, ring4, tmp_path):
    good = tmp_path / "good.labels"
    good.write_text("1 10\n2 20\n3 30\n4 40\n")
    for radius in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "check-consistent", "--net", ring4, "--labels", str(good),
            "--radius", radius,
        )
        assert (code, out) == (2, "")
        assert err == "error: local consistency needs a radius k >= 1\n"


def test_check_consistent_missing_label_is_an_error(capsys, ring4, tmp_path):
    short = tmp_path / "short.labels"
    short.write_text("1 10\n2 20\n4 40\n")
    code, out, err = run_cli(
        capsys, "check-consistent", "--net", ring4, "--labels", str(short),
    )
    assert code == 2 and out == ""
    assert err == "error: label map misses nodes [3]\n"


def test_repeated_label_line_rejected(capsys, ring4, tmp_path):
    twice = tmp_path / "twice.labels"
    twice.write_text("1 10\n2 20\n3 30\n4 40\n2 50\n")
    for argv in (
        ("check-consistent", "--net", ring4, "--labels", str(twice)),
        (
            "qe-fo-loc", "--net", ring4, "--labels", str(twice),
            "--identity", "local-consistent:1", "--req", "1",
            "--query", "exists y in N^1(x). G(x,y)",
        ),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "node 2 is labeled twice" in err


def test_non_integer_identity_radius_and_label_rejected(capsys, ring4, tmp_path):
    good = tmp_path / "good.labels"
    good.write_text("1 10\n2 20\n3 30\n4 40\n")
    for mode in ("local-consistent:x", "local-consistent:\u0663"):
        code, _, err = run_cli(
            capsys, "qe-fo-loc", "--net", ring4, "--labels", str(good),
            "--identity", mode, "--req", "1",
            "--query", "exists y in N^1(x). G(x,y)",
        )
        assert code == 2
        assert f"identity mode '{mode}' needs an integer radius" in err
    for bad_line in ("2 b", "b 20", "2", "2 \u0662\u0660", "+2 20", "2 2_0"):
        bad = tmp_path / "bad.labels"
        bad.write_text(f"1 10\n{bad_line}\n3 30\n4 40\n")
        code, _, err = run_cli(
            capsys, "check-consistent", "--net", ring4, "--labels", str(bad),
        )
        assert code == 2
        assert err == (
            f"error: label line must be two integers 'node label': {bad_line!r}\n"
        )


def test_options_a_command_ignores_are_rejected(capsys, path3, ring4, tmp_path):
    good = tmp_path / "good.labels"
    good.write_text("1 10\n2 20\n3 30\n4 40\n")
    for argv in (
        ("oracle-fo", "--net", path3, "--query", "exists y. G(x,y)", "--check"),
        ("compile", "--net", path3, "--query", "T(x,y) :- G(x,y).",
         "--identity", "anonymous"),
        ("check-consistent", "--net", ring4, "--labels", str(good),
         "--rounds-cap", "1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_parse_error_is_position_tagged(capsys, path3):
    code, _, err = run_cli(
        capsys, "oracle-fo", "--net", path3, "--query", "exists y. G(x,"
    )
    assert code == 2
    assert "error:" in err and "line 1" in err


def test_missing_required_flags(capsys, path3):
    code, _, err = run_cli(
        capsys, "qe-fo", "--net", path3, "--query", "exists y. G(x,y)"
    )
    assert code == 2 and "--req" in err
    code, _, err = run_cli(capsys, "oracle-fo", "--query", "G(x,y)")
    assert code == 2 and "--net" in err


def test_bad_requester_rejected(capsys, path3):
    code, _, err = run_cli(
        capsys,
        "qe-fo", "--net", path3, "--query", "exists y. G(x,y)",
        "--req", "9",
    )
    assert code == 2 and "requester" in err


def test_round_cap_exceeded_is_an_error(capsys, tmp_path):
    p4 = tmp_path / "p4.net"
    p4.write_text(network_text(path_graph(4)))
    code, out, err = run_cli(
        capsys,
        "qe-fo", "--net", str(p4), "--query", "exists y. G(x,y)",
        "--req", "1", "--rounds-cap", "2",
    )
    assert (code, out) == (2, "")
    assert err == "error: round cap 2 exceeded without termination\n"


def test_a_non_positive_round_cap_is_rejected(capsys, path3):
    for argv in (
        ("qe-fo", "--net", path3, "--query", "exists y. G(x,y)", "--req", "1"),
        ("netlog-run", "--net", path3, "--query", "T(@x) :- start(@x)."),
    ):
        for cap in ("0", "-5"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--rounds-cap", cap])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert (
                f"argument --rounds-cap: {cap} is not a positive number of rounds"
                in err
            )


@pytest.mark.parametrize("word", ["\u0661", "1_0", "+1"])
def test_integer_options_take_ascii_digits_only(capsys, path3, ring4, tmp_path, word):
    """Every integer argument rejects what `int` would reinterpret: an
    Arabic-Indic digit one, a `_` separator and a `+` sign."""
    labels = tmp_path / "r4.labels"
    labels.write_text("1 10\n2 20\n3 30\n4 40\n")
    qe = ("qe-fo", "--net", path3, "--query", "exists y. G(x,y)", "--req", "1")
    cases = [
        (qe, "--req"),
        (qe, "--port-seed"),
        (qe, "--order-seed"),
        (qe, "--rounds-cap"),
        (("compile", "--net", path3, "--query", "T(x,y) :- G(x,y)."), "--delta"),
        (("check-consistent", "--net", ring4, "--labels", str(labels)), "--radius"),
    ]
    for argv, flag in cases:
        assert main(list(argv)) in (0, 1), flag  # the command runs as written
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, word])
        assert exc.value.code == 2
        assert f"argument {flag}: {word!r} is not an integer" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["fixtures", "path", word])
    assert exc.value.code == 2
    assert f"argument size: {word!r} is not an integer" in capsys.readouterr().err


def _run_module(module: str, *argv: str) -> subprocess.CompletedProcess:
    """`python -m module argv...` in a child that imports the same package
    as this process."""
    src = str(Path(netquery.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_module_invocation_subprocess(path3):
    proc = _run_module(
        "netquery.cli", "oracle-fo", "--net", path3, "--query", "exists y. G(x,y)"
    )
    assert proc.returncode == 0
    assert "3 tuples" in proc.stdout


def test_package_invocation_subprocess(path3):
    # `python -m netquery` runs the same front end as the `netquery` script.
    proc = _run_module(
        "netquery", "oracle-fo", "--net", path3, "--query", "exists y. G(x,y)"
    )
    assert proc.returncode == 0, proc.stderr
    assert "3 tuples" in proc.stdout
