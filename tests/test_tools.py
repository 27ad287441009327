"""The scripts under ``tools/`` against the library they call.

The tools are run by hand, so a library name they use that has been
removed or renamed would only fail when someone next runs them.  These
tests read each script's source instead: every ``witnessforge`` module it
imports, every name it imports from one, and every attribute it reads off
an imported module must exist.  ``tools/library_size.py`` is also run on
the package and on a directory that is not one.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = sorted((ROOT / "tools").glob("*.py"))


def library_names(tree: ast.Module):
    """(module, name) for every witnessforge module the script imports
    (name None), every name it imports from one, and every attribute it
    reads off a module it imported by name."""
    modules = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "witnessforge":
                    found.append((alias.name, None))
                    if alias.asname:
                        modules[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "witnessforge":
            for alias in node.names:
                found.append((node.module, alias.name))
                modules[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.append((modules[node.value.id], node.attr))
    return found


@pytest.mark.parametrize("path", TOOLS, ids=[p.name for p in TOOLS])
def test_tool_uses_only_library_names_that_exist(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for module, name in library_names(tree):
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError:
            # a name imported from a module that is itself an attribute,
            # such as a function, is checked as an attribute below
            parent, _, attr = module.rpartition(".")
            target = getattr(importlib.import_module(parent), attr)
        if name is not None and not hasattr(target, name):
            # a submodule that its package does not import itself
            submodule = hasattr(target, "__path__") and \
                importlib.util.find_spec(f"{module}.{name}") is not None
            assert submodule, f"{path.name}: {module}.{name}"


def test_tool_names_include_module_attribute_reads():
    tree = ast.parse("from witnessforge import tomography as tm\n"
                     "tm.no_such_sampler(1)\n")
    assert ("witnessforge.tomography", "no_such_sampler") in \
        library_names(tree)


def test_library_size_prints_both_counts():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "library_size.py"),
         str(ROOT / "src" / "witnessforge")],
        capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    lines, callables = done.stdout.splitlines()
    assert lines.startswith("lines ")
    assert lines.endswith(" (without _dawson_poly.py)")
    assert int(lines.split()[1].replace(",", "")) > 0
    assert callables.startswith("public callables ")
    assert int(callables.split()[-1]) > 0


def test_library_size_refuses_a_directory_that_is_not_a_package(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "library_size.py"),
         str(tmp_path)],
        capture_output=True, text=True, check=False)
    assert done.returncode != 0
    assert "is not a package directory" in done.stderr
