"""The tier-1 run itself: a failing test is reported as one failure and the run goes on.

Hypothesis's pytest plugin imports libcst to print a failing example's patch, and libcst's
import warns DeprecationWarning from mypy_extensions. Under the repo's `error::` filters that
warning raised inside a pytest hook: the run ended with INTERNALERROR (exit 3) and no test
after the failing one ran. The repo's ini ignores that one third-party message.

Also three lints the repo has no linter for: no module of the package imports a name it
never reads, so a kernel entry point that loses its last caller loses its import too; no
private function or class of the package outlives its last reader; and no module-level
constant does either. And README's layout table names every module of the package.
"""

import ast
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    pass
"""


def test_failing_hypothesis_test_leaves_the_run_going(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_sample.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in proc.stdout


def _unused_imports(path):
    """The names a module binds by import and never reads (`from __future__` aside)."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    src = os.path.join(ROOT, "src", "reservelab")
    unused = {name: _unused_imports(os.path.join(src, name))
              for name in sorted(os.listdir(src))
              if name.endswith(".py") and name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}


def _definitions(src, own):
    """(module, name) of each name `own(statement)` says a module-level statement defines,
    and every name read by a statement that does not define it: a Name load, or the
    attribute of an attribute load (`module._name`)."""
    defined, read = {}, set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for statement in tree.body:
            names = own(statement)
            defined.update(dict.fromkeys((name, defined_name) for defined_name in sorted(names)))
            read |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(statement)
                     if isinstance(node, (ast.Name, ast.Attribute))
                     and isinstance(node.ctx, ast.Load)} - names
    return list(defined), read


def _private_function_or_class(statement):
    """The name of a function or class whose name starts with `_`."""
    return ({statement.name} if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
            and statement.name.startswith("_") else set())


_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _constant(statement):
    """The UPPER or _UPPER names an assignment binds. Setting an item of a constant
    (`_TABLE[i] = x`) counts as defining it, not as reading it."""
    targets = (statement.targets if isinstance(statement, ast.Assign) else
               [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and _CONSTANT.fullmatch(node.id)}


def _unread(src, own):
    defined, read = _definitions(src, own)
    return defined, [(module, name) for module, name in defined if name not in read]


def test_every_private_function_and_class_is_read():
    defined, unread = _unread(os.path.join(ROOT, "src", "reservelab"), _private_function_or_class)
    assert len(defined) > 40  # the walk found the package's helpers
    assert unread == []


def test_every_module_constant_is_read(tmp_path):
    src = os.path.join(ROOT, "src", "reservelab")
    defined, unread = _unread(src, _constant)
    assert len(defined) > 30  # the walk found the package's constants
    assert unread == []
    copy = tmp_path / "reservelab"  # the check sees a constant no statement reads
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "logs.py", "a", encoding="utf-8") as fh:
        fh.write("\n_UNUSED = 1\n")
    assert _unread(str(copy), _constant)[1] == [("logs.py", "_UNUSED")]


def test_readme_layout_names_every_module():
    """The rows of README's layout table are exactly the package's modules."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        rows = re.findall(r"^\| `reservelab\.(\w+)` \|", fh.read(), re.MULTILINE)
    modules = [name[:-3] for name in os.listdir(os.path.join(ROOT, "src", "reservelab"))
               if name.endswith(".py") and name != "__init__.py"]
    assert len(rows) == len(set(rows))
    assert sorted(rows) == sorted(modules)
