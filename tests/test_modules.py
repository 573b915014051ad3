"""Module boundaries: the package's public surface and its private names."""

import ast
import os
import pathlib
import subprocess
import sys

import majmux

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "majmux"


def test_no_module_imports_a_private_name_of_a_sibling():
    leaks = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or node.module.split(".")[0] == "majmux"):
                leaks += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert leaks == []


def test_every_public_name_imports_from_the_package():
    assert all(hasattr(majmux, name) for name in majmux.__all__)


def test_cli_import_loads_no_pool_or_polynomial_module():
    # the process pool is imported only when a run asks for two or more
    # workers, and Horner's rule lives in chains, so start-up pays for none
    probe = ("import sys, majmux.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing') "
             "or m.startswith('numpy.polynomial')))")
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
