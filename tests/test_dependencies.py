"""Runtime dependencies: pyproject.toml declares exactly what the package
imports, the CLI runs in an interpreter where numpy cannot be imported, and
no module of the package reads an environment variable."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _third_party_imports(directory, local=()):
    """Top-level names of the non-stdlib modules imported by *.py in directory."""
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"dimercluster"} - set(local)


def _environment_reads(directory):
    """(file, line) of every use of os.environ, os.getenv or a bare environ
    or getenv name in *.py in directory."""
    reads = []
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in ("environ", "getenv", "environb", "getenvb"):
                reads.append((path.name, getattr(node, "lineno", None)))
    return reads


def _requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}


@pytest.fixture(scope="module")
def project():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_runtime_dependencies_are_what_src_imports(project):
    assert _third_party_imports(ROOT / "src" / "dimercluster") == _requirement_names(
        project["dependencies"]
    )


def test_test_extra_is_what_the_suite_imports_beyond_runtime(project):
    tests = ROOT / "tests"
    local = {path.stem for path in tests.glob("*.py")}
    runtime = _requirement_names(project["dependencies"])
    assert _third_party_imports(tests, local) - runtime == _requirement_names(
        project["optional-dependencies"]["test"]
    )


def test_the_package_reads_no_environment_variable():
    # every knob is a command-line option or a named constant
    assert _environment_reads(ROOT / "src" / "dimercluster") == []


def test_cli_verifies_with_numpy_blocked():
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from dimercluster.cli import main\n"
        "main(['verify', '-q', 'n=5; 1>0,2>1,3>2,2>4', '-d', '1,1,2,1,1',"
        " '--oracle', 'tran,mutation'])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
