import ast
import importlib
import io
import json
import os
import subprocess
import sys

import pytest

import loopfloer
from loopfloer import Slope, SlopeSet, cli
from loopfloer.cli import run
from loopfloer.plumbing import format_tree, seifert_tree

POINCARE = "v 0 -1\nv 1 -2\nv 2 -3\nv 3 -5\ne 0 1\ne 0 2\ne 0 3\n"
# a star whose third leg has 600 vertices: the plumbing pipeline recurses
# once per vertex along it
DEEP_CONE = [(2, 1), (3, 1), (601, 600)]


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


@pytest.fixture()
def poincare_file(tmp_path):
    p = tmp_path / "poincare.tree"
    p.write_text(POINCARE)
    return "@" + str(p)


def test_hf_command(capsys, poincare_file):
    code, out, _ = invoke(capsys, "hf", poincare_file)
    assert code == 0 and out == "dim=1 lspace=yes"


def test_hf_json_and_oracle(capsys, poincare_file):
    code, out, _ = invoke(capsys, "--format", "json", "--oracle", "hf", poincare_file)
    assert code == 0
    assert json.loads(out) == {"dim": 1, "is_lspace": True}


def test_cfd_command(capsys, tmp_path):
    p = tmp_path / "gamma_n.tree"
    p.write_text("v 0 0\nv 1 0\nv 2 2\nv 3 -2\ne 0 1\ne 1 2\ne 1 3\nb 0\n")
    code, out, _ = invoke(capsys, "cfd", "@" + str(p))
    assert code == 0
    # canonical spellings of (e* e*) and (d*1 d*-1)
    assert out == "(c*0 c*0) | (a-1 b-1)"


def test_fill_command(capsys):
    code, out, _ = invoke(capsys, "fill", "(a1 b1 c-2)", "1/0")
    assert code == 0 and out == "dim=1 chi=1 lspace=yes"
    code, out, _ = invoke(capsys, "--format", "json", "fill", "(a1 b1 c-2)", "0/1")
    assert json.loads(out) == {
        "dim": 2,
        "chi_abs": 0,
        "per_loop": [[2, 0]],
        "is_lspace": False,
    }


def test_fill_oracle_flag(capsys):
    code, out, _ = invoke(capsys, "--oracle", "fill", "(a1 b1 c-2)", "-2/3")
    assert code == 0


def test_interval_command(capsys):
    code, out, _ = invoke(capsys, "interval", "(a1 b1 c-2)")
    assert code == 0 and out == "closed-arc 1/0 -1"
    code, out, _ = invoke(capsys, "--format", "json", "interval", "(e)")
    assert json.loads(out) == {
        "interval": {"kind": "all_except", "certified": "exact", "from": "0"}
    }


def test_glue_command(capsys):
    code, out, _ = invoke(capsys, "glue", "(e)", "(a1 b1 c-2)")
    assert code == 0 and out == "yes"
    code, out, _ = invoke(capsys, "--oracle", "glue", "(e*)", "(a1 b1 c-2)")
    assert code == 0
    out = invoke(capsys, "glue", "(e*)", "(a1 b1 c-2)")
    assert out[1] == "no"


def test_twist_command(capsys):
    code, out, _ = invoke(capsys, "twist", "(e)", "tw^3", "du^-2", "tw^2", "du^-1")
    assert code == 0 and out == "(c3 c4)"  # canonical form of (d-4 d-3)
    code, out, _ = invoke(capsys, "twist", "(d-2)", "ex")
    assert code == 0 and out == "(c-1 c0)"  # canonical form of (d1 d0)


def test_twist_rejects_bad_power(capsys):
    code, out, err = invoke(capsys, "twist", "(e)", "tw^x")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "bad power in twist operation 'tw^x'"


def test_interval_oracle_flag(capsys, monkeypatch):
    code, out, _ = invoke(capsys, "--oracle", "interval", "(a-3 b1 c-3)")
    assert code == 0 and out == "closed-arc -3 1/0 [sweep-certified to depth 6]"
    # a wrong arc (the answer before the endpoint next to 1/0 was mended)
    wrong = SlopeSet.closed_arc(Slope(-3, 1), Slope(-3, 1))
    monkeypatch.setattr(cli, "lspace_interval", lambda loops: wrong)
    code, out, err = invoke(capsys, "--oracle", "interval", "(a-3 b1 c-3)")
    assert code == 1 and out == ""
    assert json.loads(err)["error"].startswith("oracle mismatch")


def test_dualize_command(capsys):
    code, out, _ = invoke(capsys, "dualize", "(d3)")
    assert code == 0 and out == "(c*-1 c*0 c*0)"
    code, out, _ = invoke(capsys, "dualize", "(d*1 d*0 d*0)")
    assert code == 0 and out == "(c-3)"
    code, out, err = invoke(capsys, "dualize", "(e)")
    assert code == 1 and "no dual representation" in err


def test_census_command(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "census", "--family", "nt", "--range", "2..3")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["t"] for r in rows] == [2, 3]
    assert rows[0]["dual_fill_dim"] == 4
    assert rows[1]["dual_fill_dim"] == 9
    assert all(r["longitude"] == "1/0" for r in rows)
    code, out, _ = invoke(capsys, "census", "--family", "nt", "--range", "2..4")
    assert code == 0 and len(out.splitlines()) == 3


def test_census_rejects_unknown_family(capsys):
    code, _, err = invoke(capsys, "census", "--family", "lens", "--range", "2..3")
    assert code == 1 and "unknown census family" in err


def test_domain_errors(capsys):
    code, _, err = invoke(capsys, "fill", "(a0)", "1/0")
    assert code == 1 and json.loads(err)["error"].startswith("bad loop")
    code, _, err = invoke(capsys, "hf", "v 0 0\nb 0\nb 0")
    assert code == 1


def test_usage_error_exit_code(capsys):
    assert run(["fill"]) == 2
    assert run([]) == 2


BAD_INPUTS = [
    # (argv, exit code, start of the JSON reason; None for usage errors)
    (["fill", "(a1 q2)", "1/0"], 1, "bad loop input"),
    (["fill", "(e)", "1/0/2"], 1, "bad slope"),
    (["fill", "(e)", "0/0"], 1, "bad slope"),
    (["cfd", "v 0 x"], 1, "bad tree input"),
    (["cfd", "v 0 1"], 1, "cfd needs a tree with a boundary half-edge"),
    (["cfd", "v 0 -1\nv 1 0\nv 2 0\nv 3 -2\ne 0 1\ne 0 2\ne 0 3\nb 0"], 1, "merge requires"),
    (["hf", "v 0 0\nv 1 0\ne 0 1"], 1, "2 bad vertices"),
    (["twist", "(e)", "tw^2", "spin"], 1, "unknown twist operation 'spin'"),
    (["twist", "(e)", "du^1.5"], 1, "bad power in twist operation 'du^1.5'"),
    (["census", "--family", "lens", "--range", "2..3"], 1, "unknown census family"),
    (["census", "--family", "nt", "--range", "2..1"], 1, "bad range"),
    (["fill", "@no-such-file.txt", "1/0"], 1, "cannot read 'no-such-file.txt'"),
    (["fill", "(e)"], 2, None),
    (["census", "--family", "nt"], 2, None),
    (["--format", "yaml", "fill", "(e)", "1/0"], 2, None),
    (["spin", "(e)"], 2, None),
    (["dualize", "# nothing"], 1, "no loops in input"),
    (["fill", "(e)", "x"], 1,
     "bad slope 'x': a slope is p/q, an integer, or inf, with at most one '/'"),
    (["fill", "(e)", "1/y"], 1,
     "bad slope '1/y': a slope is p/q, an integer, or inf, with at most one '/'"),
    (["fill", "(e)", "99999999999999999999/3"], 1,
     "too large to compute with: 99999999999999999999"),
    (["fill", "(d99999999999999999999)", "1"], 1,
     "too large to compute with: 99999999999999999999"),
    (["hf", format_tree(seifert_tree(-1, DEEP_CONE, bounded=False))], 1, "too deep to compute with"),
    (["cfd", format_tree(seifert_tree(-1, DEEP_CONE))], 1, "too deep to compute with"),
]


@pytest.mark.parametrize("argv,code,reason", BAD_INPUTS)
def test_bad_input_exit_codes(capsys, monkeypatch, tmp_path, argv, code, reason):
    monkeypatch.chdir(tmp_path)
    got, out, err = invoke(capsys, *argv)
    assert got == code and out == ""
    assert "Traceback" not in err
    if reason is not None:
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"].startswith(reason)


@pytest.mark.parametrize("slope", ["-1/0", "-inf", "-infty", "-oo"])
def test_negative_infinity_reads_as_one_over_zero(capsys, slope):
    assert invoke(capsys, "fill", "(e)", slope) == (0, "dim=1 chi=1 lspace=yes", "")


def test_slope_with_two_slashes_names_the_fault(capsys):
    got, out, err = invoke(capsys, "fill", "(e)", "1/0/2")
    assert (got, out) == (1, "")
    reason = json.loads(err)["error"]
    assert reason.startswith("bad slope '1/0/2': a slope is p/q, an integer, or inf")


def test_inline_text_is_never_a_path(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e").write_text("(e*)\n")
    assert invoke(capsys, "fill", "e", "inf") == (0, "dim=1 chi=1 lspace=yes", "")
    assert invoke(capsys, "fill", "@e", "inf") == (0, "dim=2 chi=0 lspace=no", "")
    monkeypatch.setattr(sys, "stdin", io.StringIO("(e*)\n"))
    assert invoke(capsys, "fill", "-", "inf") == (0, "dim=2 chi=0 lspace=no", "")


def test_runtime_does_not_import_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(loopfloer.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import loopfloer, loopfloer.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True)


def test_census_script_ends_quietly_when_its_reader_closes_early():
    src = os.path.dirname(os.path.dirname(os.path.abspath(loopfloer.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "census_intervals.py")
    proc = subprocess.Popen([sys.executable, script, "--count", "3"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=path))
    proc.stdout.close()  # the reader is gone before the first line
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_benchmark_traced_names_exist():
    """Every (module, attribute) the benchmark's tracer wraps is still there:
    deleting one would pass the rest of this suite and crash only traced
    benchmark runs."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    lists = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and getattr(node.targets[0], "id", None) in ("TRACED", "TRACED_ONLY_IN")}
    assert lists["TRACED"] and lists["TRACED_ONLY_IN"]
    wanted = [(module, attr) for _, module, attr in lists["TRACED"]]
    for _, module, attr, only in lists["TRACED_ONLY_IN"]:
        wanted += [(module, attr), (only, attr)]
    missing = [(module, attr) for module, attr in wanted
               if not hasattr(importlib.import_module(f"loopfloer.{module}"), attr)]
    assert missing == []
