"""Runtime dependencies: pyproject.toml declares exactly what the package
imports, the CLI runs in an interpreter where numpy cannot be imported, no
module of the package reads an environment variable, no module writes
indented JSON through ``json.dumps``, every function, class and method
of the package, public or private, is used somewhere in the package, and so
are every attribute the package sets and every module-level name it
assigns; every definition of the tests' frozen
copies in ``tests/reference.py`` is used by a test; and every hypothesis
test of the suite draws the same examples on every run, with no database
and no deadline."""

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


def _indented_json_calls(directory):
    """(file, line) of every ``json.dumps`` or ``json.dump`` call given an
    ``indent=`` keyword in *.py in directory."""
    calls = []
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name in ("dumps", "dump") and any(kw.arg == "indent" for kw in node.keywords):
                calls.append((path.name, node.lineno))
    return calls


def _is_click_command(node):
    """Whether a def is registered on the CLI group by ``@main.command(...)``."""
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "command"
            and isinstance(func.value, ast.Name)
            and func.value.id == "main"
        ):
            return True
    return False


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _unused_names(directory):
    """Module-level functions and classes, and methods of module-level
    classes, of *.py in directory that no code in directory names outside
    their own definition.  A use is a ``Name`` id, an ``Attribute`` attr or
    an import alias; CLI commands and dunder methods are exempt."""
    defs = []  # (label, name, node)
    uses = []  # (name, node)
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not _is_click_command(node):
                defs.append((node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        defs.append(("%s.%s" % (node.name, item.name), item.name, item))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, node))
            elif isinstance(node, ast.alias):
                uses.append((node.name.split(".")[-1], node))
    unused = []
    for label, name, definition in defs:
        own = set(map(id, ast.walk(definition)))
        if not any(used == name and id(node) not in own for used, node in uses):
            unused.append(label)
    return sorted(unused)


def _unread_module_names(directory):
    """(file, name) of every name assigned at module level (constants and
    tables; dunders such as ``__all__`` exempt) in *.py in directory that no
    code there reads: a ``Name`` load, an ``Attribute`` attr or an import
    alias.  Also the number of names checked."""
    assigned, read = [], set()
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name) and not _is_dunder(sub.id):
                            assigned.append((path.name, sub.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
    return sorted(item for item in assigned if item[1] not in read), len(assigned)


def _names_used(node):
    """Every name a node's code uses: ``Name`` ids, ``Attribute`` attrs and
    import aliases."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
    return names


def _unused_references(directory):
    """Module-level functions, classes and assigned names of reference.py in
    directory that no other *.py there names, directly or through the
    reference definitions it names."""
    defs = {}
    for node in ast.parse((directory / "reference.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        defs[sub.id] = node.value
    used = set()
    for path in directory.glob("*.py"):
        if path.name != "reference.py":
            used |= _names_used(ast.parse(path.read_text(), filename=str(path)))
    live = [name for name in defs if name in used]
    seen = set(live)
    while live:
        for name in _names_used(defs[live.pop()]) & defs.keys() - seen:
            seen.add(name)
            live.append(name)
    return sorted(defs.keys() - seen)


def _unread_attributes(directory):
    """(file, name) of every attribute that code in *.py in directory sets on
    an object (``self.name = ...`` or ``obj.name = ...``, in any assignment
    target) under a name that no code in directory reads as an attribute."""
    stored, read = [], set()
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.append((path.name, node.attr))
                else:
                    read.add(node.attr)
    return sorted({(name, attr) for name, attr in stored if attr not in read})


def _decorator_name(deco):
    func = deco.func if isinstance(deco, ast.Call) else deco
    return getattr(func, "attr", None) or getattr(func, "id", None)


def _hypothesis_tests(directory):
    """{(file, test name): whether its ``@settings`` has derandomize=True,
    database=None and deadline=None} for every ``@given`` def in *.py in
    directory."""
    pinned = {"derandomize": True, "database": None, "deadline": None}
    tests = {}
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.FunctionDef):
                continue
            if "given" not in map(_decorator_name, node.decorator_list):
                continue
            keywords = {}
            for deco in node.decorator_list:
                if _decorator_name(deco) == "settings" and isinstance(deco, ast.Call):
                    for kw in deco.keywords:
                        if isinstance(kw.value, ast.Constant):
                            keywords[kw.arg] = kw.value.value
            tests[path.name, node.name] = all(
                k in keywords and keywords[k] is v for k, v in pinned.items()
            )
    return tests


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


def test_indented_json_has_one_writer():
    # an indent sends json.dumps to its pure-Python encoder; every command
    # writes indented JSON through cli._write_json, which gives the same bytes
    assert _indented_json_calls(ROOT / "src" / "dimercluster") == []


def _is_private(label):
    return label.split(".")[-1].startswith("_")


def test_every_public_name_is_used_in_the_package():
    # no dead or test-only public API: the tests reach the package only
    # through names the package itself calls
    unused = _unused_names(ROOT / "src" / "dimercluster")
    assert [label for label in unused if not _is_private(label)] == []


def test_every_private_name_is_used_in_the_package():
    # no private helper or method left behind once its callers are gone
    unused = _unused_names(ROOT / "src" / "dimercluster")
    assert [label for label in unused if _is_private(label)] == []


def test_every_attribute_set_is_read_in_the_package():
    # no per-instance table or field that only the tests read, or nothing
    assert _unread_attributes(ROOT / "src" / "dimercluster") == []


def test_every_module_level_name_is_read_in_the_package():
    # no constant or table left behind once its readers are gone
    unread, checked = _unread_module_names(ROOT / "src" / "dimercluster")
    assert checked >= 20
    assert unread == []


def test_every_reference_definition_is_used_by_a_test():
    # a frozen copy that no test compares with anything checks nothing
    assert _unused_references(ROOT / "tests") == []


def test_every_hypothesis_test_is_derandomized_without_database_or_deadline():
    # the same draws on every run and every machine, so a failure repeats
    tests = _hypothesis_tests(ROOT / "tests")
    assert len(tests) >= 25
    assert [name for name, pinned in tests.items() if not pinned] == []


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
