"""Module boundaries: the package's public surface and its private names."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

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


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "import os; print(len(os.listdir('/proc/self/task')))"
ENV_KEPT = ("import os; env = dict(os.environ); {first}import majmux; "
            "print(dict(os.environ) == env, "
            "os.environ.get('OPENBLAS_NUM_THREADS'))")
on_linux = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                              reason="counts threads in /proc/self/task")


def _run(probe, **env):
    """stdout of ``python -c probe`` with majmux importable, none of the
    BLAS thread variables set and ``env`` added."""
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**base, "PYTHONPATH": path, **env},
                          timeout=60, check=True)
    return proc.stdout.strip()


def test_cli_import_loads_no_pool_or_polynomial_module():
    # the process pool is imported only when a run asks for two or more
    # workers, and Horner's rule lives in chains, so start-up pays for none
    probe = ("import sys, majmux.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing') "
             "or m.startswith('numpy.polynomial')))")
    assert _run(probe) == "[]"


def test_import_leaves_the_environment_as_found():
    assert _run(ENV_KEPT.format(first="")) == "True None"


@on_linux
def test_import_runs_blas_on_one_thread():
    assert (_run(f"import majmux; {THREADS}")
            == _run(f"import numpy; {THREADS}", OPENBLAS_NUM_THREADS="1"))


@on_linux
def test_import_keeps_the_callers_thread_setting():
    assert _run(ENV_KEPT.format(first=""), OPENBLAS_NUM_THREADS="2") \
        == "True 2"
    assert (_run(f"import majmux; {THREADS}", OPENBLAS_NUM_THREADS="2")
            == _run(f"import numpy; {THREADS}", OPENBLAS_NUM_THREADS="2"))


@on_linux
def test_import_after_numpy_changes_nothing():
    assert _run(ENV_KEPT.format(first="import numpy; ")) == "True None"
    assert (_run(f"import numpy, majmux; {THREADS}")
            == _run(f"import numpy; {THREADS}"))
