"""Fixed-seed CLI artifacts, pinned byte for byte.

Each file in ``tests/data/golden`` was written by the command next to its
name.  Any change to a draw order, a seed derivation, a kernel or the
rendering shows up here as a byte difference.
"""

import pathlib

import pytest

from majmux.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"

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
    "sweep_hypercube.csv": [
        "sweep", "--model", "hypercube_mc", "--grid", "0.1:0.12:2",
        "--min-flips", "30", "--seed", "7"],
    "sweep_vn.csv": [
        "sweep", "--model", "vn_mc", "--grid", "0.1:0.12:2",
        "--min-flips", "30", "--seed", "8"],
    "compare_vn.csv": [
        "compare-vn", "--grid", "0.1:0.12:2", "--min-flips", "30",
        "--seed", "3"],
    "encode.csv": [
        "encode", "--p", "0.02", "--trials", "20000", "--seed", "4"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
