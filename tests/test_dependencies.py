"""The package's import footprint: what importing and running it loads, and
what its sources import against what pyproject.toml declares."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_package_and_cli_run_without_scipy():
    code = (
        "import sys\n"
        "import covertawgn as cw, covertawgn.cli\n"
        "spec = cw.TruncatedGaussianSpec(n=16, psi=0.1, mu=0.8)\n"
        "cw.simulate(spec, M=4, trials=64, seed=0)\n"
        "cw.output_divergences_quadrature(cw.radial_output_density(spec))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]", f"scipy modules loaded: {out.strip()}"


def _third_party_imports() -> set[str]:
    """Top-level package of every absolute import in src/covertawgn, less the
    standard library."""
    names = set()
    for py in sorted((SRC / "covertawgn").glob("*.py")):
        for node in ast.walk(ast.parse(py.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__"}


def test_third_party_imports_equal_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.\-]+", req).group(0) for req in project["dependencies"]}
    assert _third_party_imports() == declared


def _lgamma_sites() -> list[tuple[str, str]]:
    """(file, enclosing function) of every name or attribute lgamma in
    src/covertawgn, imports included; '' outside any function."""
    sites = []

    def visit(node, where, file):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        name = node.name if isinstance(node, ast.alias) else getattr(node, "attr", None)
        if "lgamma" in (name, getattr(node, "id", None)):
            sites.append((file, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where, file)

    for py in sorted((SRC / "covertawgn").glob("*.py")):
        visit(ast.parse(py.read_text(encoding="utf-8")), "", py.name)
    return sites


def test_lgamma_is_read_only_by_the_gamma_log_density():
    # ln Gamma is evaluated in one place, so the Gamma density is written once
    assert _lgamma_sites() == [("specfn.py", "_log_gamma_pdf")]


def _stream_sites() -> tuple[list[str], set[str]]:
    """The tag argument of every _rng(...) call in src/covertawgn, as source
    text, and every name and attribute named there."""
    tags, names = [], set()
    for py in sorted((SRC / "covertawgn").glob("*.py")):
        for node in ast.walk(ast.parse(py.read_text(encoding="utf-8"))):
            names.add(getattr(node, "attr", getattr(node, "id", None)))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_rng":
                tags.append(ast.unparse(node.args[1]))
    return tags, names


def test_each_stream_is_drawn_at_one_rng_call_site():
    # one draw site per stream (stream contract v6): a second site for a
    # stream would draw its samples twice; the retired DIVERGENCE appears
    # nowhere in the sources
    from covertawgn.simkit import StreamTag

    tags, names = _stream_sites()
    assert sorted(tags) == sorted(f"StreamTag.{t.name}" for t in StreamTag)
    assert "DIVERGENCE" not in names
