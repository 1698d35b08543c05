"""Command line interface, driven in-process through ``cli.main``.

The one out-of-process check is ``test_installed_script_smoke``: it runs the
declared ``kneserchrom`` console script as a separate process, either the
installed script on ``PATH`` or, without one, the ``[project.scripts]`` target
from ``pyproject.toml`` in a fresh interpreter.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kneserchrom
from kneserchrom import SimpleGraph, collide_search, kneser_psum, write_graph6
from kneserchrom.cli import main

P4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_text_output_frozen(capsys):
    code, out, err = run_cli(capsys, "invariant", "A_")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "graph: A_  n=2  k=2  coeffs=witness"
    assert lines[1] == "terms: 3"
    assert set(lines[2:]) == {
        "+1\t2:[[0,1]] | 2:[[0,1]]",
        "-1\t2:[[0,1],[0,1]]",
        "-2\t3:[[0,2],[1,2]]",
    }


def test_invariant_json_round_trips(capsys):
    code, out, err = run_cli(capsys, "invariant", "--json", "--k", "1", "A_")
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 1 and data["n"] == 2
    from kneserchrom import PSeries

    series = PSeries.from_json_dict(data)
    assert series.terms == kneser_psum(SimpleGraph.from_edges(2, [(0, 1)]), 1).terms


def test_invariant_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("A_\n"))
    code, out, _ = run_cli(capsys, "invariant", "-")
    assert code == 0 and out.startswith("graph: A_")


def test_invariant_cache_file(capsys, tmp_path):
    cache = tmp_path / "series.jsonl"
    code1, out1, _ = run_cli(capsys, "invariant", "--cache", str(cache), "Cs")
    assert code1 == 0 and cache.exists()
    code2, out2, _ = run_cli(capsys, "invariant", "--cache", str(cache), "Cs")
    assert code2 == 0 and out2 == out1


@pytest.mark.parametrize(
    "bad",
    [[1, 2], 5, {"graph6": 5}, {"k": 2.9}, {"k": "2"}],
    ids=["list", "number", "graph6-not-string", "k-float", "k-string"],
)
def test_exit_code_malformed_cache_record(capsys, tmp_path, bad):
    # a valid record of A_ is written first, then replaced by the bad line
    cache = tmp_path / "series.jsonl"
    assert run_cli(capsys, "invariant", "--cache", str(cache), "A_")[0] == 0
    line = {**json.loads(cache.read_text()), **bad} if isinstance(bad, dict) else bad
    cache.write_text(json.dumps(line) + "\n")
    code, out, err = run_cli(capsys, "invariant", "--cache", str(cache), "A_")
    assert code == 2 and out == "" and err.startswith(f"error: {cache}:1: malformed cache record")


def test_reconstruct_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    series = kneser_psum(P4, 2)
    path = tmp_path / "series.json"
    path.write_text(series.to_json())
    code, out, _ = run_cli(capsys, "reconstruct", str(path))
    assert code == 0
    from kneserchrom import canonical_graph6

    assert f"reconstructed: {canonical_graph6(P4)}" in out
    assert "n: 4" in out

    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(series.to_json()))
    code2, out2, _ = run_cli(capsys, "reconstruct", "--json")
    assert code2 == 0
    data = json.loads(out2)
    assert data["n"] == 4
    assert len(data["edges"]) == 3


def test_profile_text_frozen(capsys):
    # the 4-path: min profile 1,2,2,1 rooted at an end (vertex 0)
    code, out, _ = run_cli(capsys, "profile", write_graph6(P4))
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "min profile: 1 2 2 1"
    assert lines[2].startswith("min leaves: ")


def test_profile_json(capsys):
    code, out, _ = run_cli(capsys, "profile", "--json", write_graph6(P4))
    assert code == 0
    data = json.loads(out)
    assert data["min_profile"] == [1, 2, 2, 1]
    assert data["n"] == 4


def test_profile_rejects_non_tree(capsys):
    code, _, err = run_cli(capsys, "profile", "Bw")  # triangle
    assert code == 2
    assert "error:" in err


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--nmax", "4")
    assert code == 0
    assert "summary: trees=5 failures=0 injective=yes all=PASS" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--nmax", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["all_pass"] is True


def test_verify_output_is_deterministic(capsys):
    for extra in ([], ["--json"]):
        first = run_cli(capsys, "verify", "--nmax", "4", *extra)
        second = run_cli(capsys, "verify", "--nmax", "4", *extra)
        assert first[0] == 0 and first[1] == second[1]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["verify", "--nmax", "9", "--witness"],
            "6c034878172875e1d1513c980cecc8d004298d04ed3f3efdcfce8e7a1cb9ad45",
        ),
        (
            ["collide", "--nmax", "5", "--k", "2"],
            "456b0a746851b3b8dc7c005997137103ab94ae27cc9d7e0f6cb22e8c97b24199",
        ),
    ],
    ids=["verify-n9-witness", "collide-n5-k2"],
)
def test_cli_stdout_digest_frozen(capsys, argv, digest):
    # the full text output of the two benchmarked runs, byte for byte
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest

def test_collide_small(capsys):
    code, out, _ = run_cli(capsys, "collide", "--nmax", "3")
    assert code == 0
    assert "graphs=7" in out
    assert "collisions: 0  fingerprint clashes: 0" in out


def test_collide_k1_reports_the_classical_pair(capsys):
    code, out, _ = run_cli(capsys, "collide", "--nmax", "5", "--k", "1")
    assert code == 0
    assert "collision: n=5 D`{ == DR[" in out.splitlines()
    code, out, _ = run_cli(capsys, "collide", "--nmax", "5", "--k", "1", "--json")
    assert code == 0 and json.loads(out) == collide_search(5, 1)


def test_collide_rejects_nmax_above_cap_before_any_series(capsys, monkeypatch):
    from kneserchrom import catalog

    def refuse(*args, **kwargs):
        raise AssertionError("a series was computed before the cap check")

    monkeypatch.setattr(catalog, "cached_psum", refuse)
    code, out, err = run_cli(capsys, "collide", "--nmax", "8", "--k", "2")
    assert code == 3 and out == "" and err.startswith("error:")


def test_exit_code_bad_graph6(capsys):
    code, _, err = run_cli(capsys, "invariant", "!!notagraph")
    assert code == 2 and err.startswith("error:")


def test_exit_code_cap_exceeded(capsys):
    big = SimpleGraph.from_edges(8, [(i, i + 1) for i in range(7)])
    code, _, err = run_cli(capsys, "invariant", write_graph6(big))
    assert code == 3 and err.startswith("error:")
    # an n_max above LAMBDA_T_CAP is refused before any tree
    code, _, err = run_cli(capsys, "verify", "--nmax", "10")
    assert code == 3 and err.startswith("error:")


def test_exit_code_reconstruct_k1_series(capsys, tmp_path):
    path = tmp_path / "series.json"
    path.write_text(kneser_psum(P4, 1).to_json())
    code, _, err = run_cli(capsys, "reconstruct", str(path))
    assert code == 2 and "k = 2" in err


def test_exit_code_reconstruct_no_tree_classes(capsys, tmp_path):
    # a valid k = 2 series payload whose support has no tree class
    path = tmp_path / "series.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "k": 2,
                "coeffs": "witness",
                "terms": [{"class": ["2:[[0,1]]", "2:[[0,1]]"], "coeff": 1}],
            }
        )
    )
    code, _, err = run_cli(capsys, "reconstruct", str(path))
    assert code == 2 and "no tree classes" in err


# a 12-cycle and a 21-symbol path: wider than any series component
CYCLE12 = "12:" + json.dumps([[i, i + 1] for i in range(11)] + [[0, 11]], separators=(",", ":"))
PATH21 = "21:" + json.dumps([[i, i + 1] for i in range(20)], separators=(",", ":"))


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 3, "k": 2, "terms": [{}]},
        {"n": 3, "k": 2, "terms": 5},
        {"n": 3, "k": 2, "terms": [{"class": 5, "coeff": 1}]},
        # numbers that int() would truncate into a reconstructible series
        {"n": 2, "k": 2, "terms": [{"class": ["3:[[0,2],[1,2]]"], "coeff": 1.9}]},
        {"n": 2, "k": 2, "terms": [{"class": ["3:[[0,2],[1,2]]"], "coeff": True}]},
        {"n": 2.9, "k": 2, "terms": [{"class": ["3:[[0,2],[1,2]]"], "coeff": 1}]},
        {"n": 2, "k": 2.0, "terms": [{"class": ["3:[[0,2],[1,2]]"], "coeff": 1}]},
        # class components that are not w: and a list of k-blocks over 0..w-1
        {"n": 2, "k": 2, "terms": [{"class": ["3:[1,2]"], "coeff": 1}]},
        {"n": 2, "k": 2, "terms": [{"class": ['3:[[0,1],[1,"a"]]'], "coeff": 1}]},
        {"n": 2, "k": 2, "terms": [{"class": ["3:[[0,1],[1,2.5]]"], "coeff": 1}]},
        {"n": 2, "k": 2, "terms": [{"class": ["3:[[0,2],[1]]"], "coeff": 1}]},
        # components that are not their own canonical class string, or not connected
        {"n": 2, "k": 2, "terms": [{"class": ["3:[[1,0],[1,2]]"], "coeff": 1}]},
        {"n": 2, "k": 2, "terms": [{"class": ["3:[[0,1],[0,2]]"], "coeff": 1}]},
        {"n": 2, "k": 2, "terms": [{"class": ["03:[[0,2],[1,2]]"], "coeff": 1}]},
        {"n": 2, "k": 2, "terms": [{"class": ["4:[[0,2],[1,3]]"], "coeff": 1}]},
        {"n": 2, "k": 2, "terms": [{"class": ["4:[[0,1],[2,3]]"], "coeff": 1}]},
        {"n": 1, "k": 1, "terms": [{"class": ["2:[[0],[1]]"], "coeff": 1}]},
        # refused before a graph of the claimed width or a long search is built
        {"n": 2, "k": 2, "terms": [{"class": ["999999999:[[0,1]]"], "coeff": 1}]},
        {"n": 2, "k": 1, "terms": [{"class": ["999999999:[[0]]"], "coeff": 1}]},
        {"n": 12, "k": 2, "terms": [{"class": [CYCLE12], "coeff": 1}]},
        {"n": 20, "k": 2, "terms": [{"class": [PATH21], "coeff": 1}]},
        # a class of a series on n vertices has n blocks, not 1
        {"n": 2, "k": 2, "terms": [{"class": ["2:[[0,1]]"], "coeff": 1}]},
    ],
)
def test_exit_code_reconstruct_malformed_terms(capsys, monkeypatch, payload):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    code, _, err = run_cli(capsys, "reconstruct", "-")
    assert code == 2 and err.startswith("error: malformed series payload")


def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(capsys, "reconstruct", "/nonexistent/series.json")
    assert code == 2 and err.startswith("error:")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _declared_script_command(name):
    """Command and environment that run ``name``'s ``[project.scripts]`` target.

    Used when no installed ``name`` script is on ``PATH``: a fresh interpreter
    imports the declared ``module:attr`` and calls ``sys.exit(attr())``, as
    pip's generated script does, with the directory holding the imported
    ``kneserchrom`` package first on its ``PYTHONPATH``.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, attr = target.split(":")
    wrapper = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    env = dict(os.environ)
    package_root = str(Path(kneserchrom.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return [sys.executable, "-c", wrapper], env


def test_installed_script_smoke():
    if shutil.which("kneserchrom"):
        command, env = ["kneserchrom"], None
    else:
        command, env = _declared_script_command("kneserchrom")
    proc = subprocess.run(
        [*command, "invariant", "A_"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("graph: A_")
