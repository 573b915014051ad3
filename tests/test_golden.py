"""Fixed-seed CLI artifacts, pinned byte for byte.

Each file in ``tests/data/golden`` was written by the command next to its
name.  Any change to a draw order, a seed derivation, a kernel or the
rendering shows up here as a byte difference.  A change that moves the
per-seed numbers on purpose reruns every command in ``CASES`` with

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files whose bytes differ and prints ``rewrote``
or ``unchanged`` for each, so the diff names exactly the files that moved.
It does the same for ``tests/data/level3_chain.txt``, the serialized
level-3 chain that ``test_chains`` pins, and for
``tests/data/chain_values.txt``, p_ss and eta of both chains on a grid
of eps, pinned bit for bit below.  With ``--check`` it writes
nothing: it prints ``differs`` or ``unchanged`` for each file and exits 1
if any differs, so a refactor can show byte identity.
"""

import pathlib
import sys
import tempfile

import pytest

from majmux.chains import (build_level2_chain, build_level3_chain,
                           propagated_bit_error, serialize_chain,
                           steady_state)
from majmux.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
CHAIN_VALUES = GOLDEN.parent / "chain_values.txt"

CASES = {
    "simulate_hypercube_eps.csv": [
        "simulate", "--model", "hypercube_mc", "--level", "2",
        "--grid", "0.1:0.14:3", "--min-flips", "40", "--seed", "9"],
    "simulate_vn_eps.csv": [
        "simulate", "--model", "vn_mc", "--level", "2", "--eps", "0.12",
        "--min-flips", "40", "--seed", "5"],
    "simulate_hypercube_p.csv": [
        "simulate", "--model", "hypercube_mc", "--level", "2", "--p", "0.05",
        "--min-flips", "30", "--max-phases", "64000", "--seed", "1"],
    "simulate_vn_p.csv": [
        "simulate", "--model", "vn_mc", "--level", "2", "--p", "0.05",
        "--min-flips", "30", "--max-phases", "32000", "--seed", "2"],
    # Monte Carlo grids on the 81-bit register, named for the `sweep`
    # models they replace; `sweep` wrote the same data rows
    "sweep_hypercube.csv": [
        "simulate", "--model", "hypercube_mc", "--level", "3",
        "--grid", "0.1:0.12:2", "--min-flips", "30", "--seed", "7"],
    "sweep_vn.csv": [
        "simulate", "--model", "vn_mc", "--level", "3",
        "--grid", "0.1:0.12:2", "--min-flips", "30", "--seed", "8"],
    "compare_vn.csv": [
        "compare-vn", "--grid", "0.1:0.12:2", "--min-flips", "30",
        "--seed", "3"],
    "encode.csv": [
        "encode", "--p", "0.02", "--trials", "20000", "--seed", "4"],
    # analytic artifacts: chain solves, root finders and the encoding bound
    "sweep_level3.csv": [
        "sweep", "--model", "level3", "--grid", "0.005:0.16:32",
        "--seed", "11"],
    # crosses eps = 0 and the 0.25 domain edge
    "sweep_level2.csv": [
        "sweep", "--model", "level2", "--grid", "0:0.3:31", "--seed", "12"],
    "sweep_concat.csv": [
        "sweep", "--model", "concat(6,2)", "--grid", "0.01:0.1:10",
        "--seed", "13"],
    "threshold_level2.csv": [
        "threshold", "--model", "level2", "--seed", "14"],
    "threshold_level3.csv": [
        "threshold", "--model", "level3", "--seed", "15"],
    "threshold_universal.csv": [
        "threshold", "--model", "universal", "--seed", "16"],
    "encode_bound.csv": [
        "encode", "--bound", "--grid", "0.001:0.028:28", "--seed", "17"],
    "encode_pcrit.csv": [
        "encode", "--pcrit", "--seed", "18"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def chain_values() -> str:
    """One line per eps = i/200, 0 <= i <= 100: eps, then p_ss and eta of
    the level-2 chain and of the level-3 chain, all as ``float.hex``."""
    lines = ["# eps p_ss(level2) eta(level2) p_ss(level3) eta(level3)"]
    for i in range(101):
        eps, vals = i / 200, []
        for chain in (build_level2_chain(), build_level3_chain()):
            vals += [steady_state(chain, eps).p_ss,
                     propagated_bit_error(chain, eps)]
        lines.append(" ".join(map(float.hex, [eps, *vals])))
    return "\n".join(lines) + "\n"


def test_chain_values_match_golden():
    assert chain_values() == CHAIN_VALUES.read_text()


def _pin(path: pathlib.Path, new: bytes, check: bool) -> bool:
    """Whether ``path`` holds ``new``; unless ``check``, rewrite it if not."""
    if path.exists() and path.read_bytes() == new:
        print("unchanged", path)
        return True
    if not check:
        path.write_bytes(new)
    print("differs" if check else "rewrote", path)
    return False


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        raise SystemExit("usage: python tests/test_golden.py [--check]")
    check = sys.argv[1:] == ["--check"]
    same = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted(CASES.items()):
            out = pathlib.Path(tmp) / name
            if main(argv + ["--out", str(out)]) != 0:
                raise SystemExit(f"{name}: command failed")
            same.append(_pin(GOLDEN / name, out.read_bytes(), check))
    same.append(_pin(GOLDEN.parent / "level3_chain.txt",
                     serialize_chain(build_level3_chain()).encode(), check))
    same.append(_pin(CHAIN_VALUES, chain_values().encode(), check))
    raise SystemExit(1 if check and not all(same) else 0)
