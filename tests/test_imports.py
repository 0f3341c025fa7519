"""No fedfft module reads another's private names, and neither the package
nor its command line imports ``fedfft.oracles`` until a self-test runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fedfft"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def private_reads(source, module):
    """Where fedfft module ``module`` imports an underscore name from another
    fedfft module, or reads ``m._name`` of a fedfft module ``m`` it imported."""
    private = lambda name: name.startswith("_") and not name.endswith("__")  # noqa: E731
    nodes = list(ast.walk(ast.parse(source)))
    bound, found = {}, []  # local name -> the fedfft module it names
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "fedfft"):
            origin = (node.module or "") if node.level else node.module.partition(".")[2]
            for alias in node.names:
                if not origin and alias.name in MODULES:
                    bound[alias.asname or alias.name] = alias.name
                elif origin != module and private(alias.name):
                    found.append(f"line {node.lineno}: from {origin or 'fedfft'} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("fedfft."):
                    bound[alias.asname] = alias.name.partition(".")[2]
    for node in nodes:
        if isinstance(node, ast.Attribute) and private(node.attr) and isinstance(node.value, ast.Name):
            if bound.get(node.value.id, module) != module:
                found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    assert private_reads(path.read_text(), path.stem) == []


@pytest.mark.parametrize(
    "source, reads",
    [
        ("from .detector import mal_test, _critical_band", 1),
        ("from fedfft.detector import _critical_band", 1),
        ("from . import detector as d\nd._critical_band(7, 0.9)", 1),
        ("import fedfft.detector as d\nd._erf", 1),
        ("from __future__ import annotations\nfrom . import detector\nfrom .cli import _build\n"
         "detector.mal_test, detector.__name__, self._cache", 0),
    ],
)
def test_private_reads_finds_each_form(source, reads):
    assert len(private_reads(source, "cli")) == reads


def test_package_and_cli_import_no_oracles():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = "import sys, fedfft, fedfft.cli; sys.exit('fedfft.oracles' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
