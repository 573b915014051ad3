"""Module boundaries: the package's public surface and its private names."""

import ast
import os
import pathlib
import shlex
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


def test_every_module_is_a_public_layer():
    # no private helper module: each file under src/majmux is one the
    # package names
    assert ({path.stem for path in SRC.glob("*.py")}
            == {"__init__", *majmux._MODULES})


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the thread count, and whether numpy is loaded at all: a pin test on a
# probe that loads no numpy would pass for nothing
THREADS = ("import os, sys; print('numpy' in sys.modules, "
           "len(os.listdir('/proc/self/task')))")
ENV_KEPT = ("import os; env = dict(os.environ); {load}; "
            "print(dict(os.environ) == env, "
            "os.environ.get('OPENBLAS_NUM_THREADS'))")
on_linux = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                              reason="counts threads in /proc/self/task")
# every way numpy first comes in: a module that uses it, a name of the
# package read lazily, and commands that run numpy code; the analytic
# modules load none (test_commands_load_only_the_layers_they_run)
FIRST_LOADS = (
    "import majmux.netsim",
    "import majmux; majmux.cascade_mc",
    "from majmux.cli import main; main(['simulate', '--model', 'vn_mc', "
    "'--level', '1', '--eps', '0.1', '--min-flips', '2'])",
    "from majmux.cli import main; main(['encode', '--p', '0.02', "
    "'--trials', '100'])",
)


def _run(probe, **env):
    """Last stdout line of ``python -c probe`` with majmux importable, none
    of the BLAS thread variables set and ``env`` added."""
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**base, "PYTHONPATH": path, **env},
                          timeout=60, check=True)
    return proc.stdout.strip().rpartition("\n")[2]


def test_cli_import_loads_no_pool_or_polynomial_module():
    # the process pool is imported only when a run asks for two or more
    # workers, and Horner's rule lives in chains, so start-up pays for none
    probe = ("import sys, majmux.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing') "
             "or m.startswith('numpy.polynomial')))")
    assert _run(probe) == "[]"


LOADED = ("print(sorted(m for m in sys.modules "
          "if m == 'numpy' or m.split('.')[0] == 'majmux'))")


def test_package_import_loads_no_submodule_and_no_numpy():
    assert _run(f"import sys, majmux; {LOADED}") == "['majmux']"


# an analytic run loads no numpy
ANALYTIC = ["majmux", "majmux.analysis", "majmux.chains", "majmux.rates"]
# a Monte Carlo run builds no chain
MONTE_CARLO = ["majmux", "majmux.analysis", "majmux.netsim", "majmux.rates",
               "numpy"]


# each command with the modules of majmux, and numpy, that it loads
COMMANDS = [
    (["--help"], ["majmux", "majmux.rates"]),
    (["encode", "--pcrit"], ["majmux", "majmux.rates"]),
    (["encode", "--bound", "--grid", "0.001:0.2:5", "--format", "json"],
     ["majmux", "majmux.rates"]),
    (["threshold", "--model", "universal"], ANALYTIC),
    (["sweep", "--model", "level3", "--grid", "0.01:0.1:3"], ANALYTIC),
    (["threshold", "--model", "level3"], ANALYTIC),
    (["threshold", "--model", "level2"], ANALYTIC),
    (["sweep", "--model", "level2", "--eps", "0.1"], ANALYTIC),
    (["sweep", "--model", "concat(6,2)", "--grid", "0.01:0.1:3"],
     ["majmux", "majmux.analysis", "majmux.rates"]),
    (["simulate", "--model", "vn_mc", "--level", "2", "--eps", "0.1",
      "--min-flips", "5"], MONTE_CARLO),
    (["compare-vn", "--eps", "0.1", "--min-flips", "5"], MONTE_CARLO),
]
COMMAND_IDS = ["help", "pcrit", "bound", "threshold", "sweep",
               "threshold-level3", "threshold-level2", "sweep-level2",
               "sweep-concat", "simulate", "compare-vn"]


def _at_exit(argv, listing):
    """The last line ``listing`` prints at the exit of ``python -m
    majmux.cli *argv``."""
    probe = (f"import atexit, runpy, sys; atexit.register(lambda: {listing}); "
             f"sys.argv = {['majmux', *argv]}; "
             "runpy.run_module('majmux.cli', run_name='__main__')")
    return _run(probe)


@pytest.mark.parametrize("argv, loaded", COMMANDS, ids=COMMAND_IDS)
def test_commands_load_only_the_layers_they_run(argv, loaded):
    assert _at_exit(argv, LOADED) == str(loaded)


@pytest.mark.parametrize("argv, loaded", COMMANDS, ids=COMMAND_IDS)
def test_commands_load_no_dataclasses_and_no_inspect_without_numpy(argv,
                                                                   loaded):
    # the records are NamedTuples and plain classes: ``import dataclasses``
    # and the ``inspect`` it loads would cost a numpy-free child ~20 ms
    got = _at_exit(argv, "print(sorted(m for m in ('dataclasses', 'inspect') "
                         "if m in sys.modules))")
    assert "dataclasses" not in got
    if "numpy" not in loaded:  # numpy itself imports inspect
        assert "inspect" not in got


def test_only_the_pin_module_imports_numpy():
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module or ""]
                     if isinstance(node, ast.ImportFrom) and node.level == 0
                     else [])
            if any(n.split(".")[0] == "numpy" for n in names):
                importers.add(path.name)
    assert importers == {"netsim.py"}


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        majmux.no_such_name
    # and looking it up loads nothing
    probe = ("import sys, majmux\ntry:\n    majmux.no_such_name\n"
             "except AttributeError as err:\n    print(err)\n" + LOADED)
    assert _run(probe) == "['majmux']"


def test_dir_lists_every_public_name_before_any_is_loaded():
    probe = ("import sys, majmux; "
             "print(set(majmux.__all__) <= set(dir(majmux)), end=' '); "
             + LOADED)
    assert _run(probe) == "True ['majmux']"


def test_import_leaves_the_environment_as_found():
    for load in ("import majmux", *FIRST_LOADS):
        assert _run(ENV_KEPT.format(load=load)) == "True None", load


@on_linux
def test_import_runs_blas_on_one_thread():
    pinned = _run(f"import numpy; {THREADS}", OPENBLAS_NUM_THREADS="1")
    for load in FIRST_LOADS:
        assert _run(f"{load}; {THREADS}") == pinned, load


@on_linux
def test_import_keeps_the_callers_thread_setting():
    theirs = _run(f"import numpy; {THREADS}", OPENBLAS_NUM_THREADS="2")
    for load in FIRST_LOADS:
        assert _run(ENV_KEPT.format(load=load), OPENBLAS_NUM_THREADS="2") \
            == "True 2", load
        assert _run(f"{load}; {THREADS}", OPENBLAS_NUM_THREADS="2") \
            == theirs, load


@on_linux
def test_import_after_numpy_changes_nothing():
    unpinned = _run(f"import numpy; {THREADS}")
    for load in FIRST_LOADS:
        assert _run(ENV_KEPT.format(load=f"import numpy; {load}")) \
            == "True None", load
        assert _run(f"import numpy; {load}; {THREADS}") == unpinned, load


ROOT = SRC.parents[1]


def _read_off_m(path):
    """Every attribute that ``path`` reads off a name ``m`` or an ``.m``."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and (isinstance(node.value, ast.Name) and node.value.id == "m"
                 or isinstance(node.value, ast.Attribute)
                 and node.value.attr == "m")}


def test_perfbench_reads_only_names_the_package_has():
    # the benchmark drives the package as ``m``; a name it reads that is
    # gone breaks its traced run
    import majmux.cli  # noqa: F401  (the benchmark imports it too)

    read = set()
    for name in ("layers.py", "workloads.py"):
        read |= _read_off_m(ROOT / "perfbench" / name)
    assert {"hypercube_schedule", "randomized_schedule"} <= read
    assert sorted(a for a in read if not hasattr(majmux, a)) == []
    for n in (1, 2):
        for helper, tag in ((majmux.hypercube_schedule(n), "hypercube"),
                            (majmux.randomized_schedule(), "randomized")):
            assert (majmux.estimate_logical_rate(
                        n, helper, majmux.Idealized(0.1), 3, min_flips=5)
                    == majmux.estimate_logical_rate(
                        n, tag, majmux.Idealized(0.1), 3, min_flips=5))


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def _readme_commands() -> list[list[str]]:
    """The argv of every ``majmux`` line in the README's sh blocks, with
    lines that end in a backslash joined to the next."""
    readme = (ROOT / "README.md").read_text()
    commands = []
    for block in readme.split("```sh\n")[1:]:
        text = block.split("```", 1)[0].replace("\\\n", " ")
        commands += [shlex.split(line)[1:] for line in text.splitlines()
                     if line.startswith("majmux ")]
    return commands


def test_readme_commands_parse_and_check():
    # parsed, checked and their grids read as the CLI would, not run
    from majmux import cli

    commands = _readme_commands()
    assert len(commands) == 11
    for argv in commands:
        given = vars(cli._build_parser().parse_args(argv))
        config = cli._checked(given, cli._RECORDED + cli._VOLATILE)
        if {"eps", "p", "grid"} & set(cli._OPTIONS[cli._row(given)]):
            assert cli._parse_grid(config), argv
