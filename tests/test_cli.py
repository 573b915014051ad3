import json
import math
import os
import subprocess
import sys

import pytest

import majmux
from majmux.cli import RunConfig, _fmt, main, parse_table
from majmux.encoding import pfail_bound


def test_fmt_keeps_full_float_precision():
    assert _fmt(1 / 3) == "0.33333333333333331"
    for v in (2.7344090266792545e-11, 0.1494144929, 1e300, -0.0):
        assert float(_fmt(v)) == v
    assert _fmt(7) == "7"
    assert _fmt("level3") == "level3"


def test_header_round_trip_drops_volatile_fields():
    cfg = RunConfig(command="sweep", model="level3", eps=0.01,
                    workers=8, out="foo.csv")
    back = RunConfig.from_header(cfg.header())
    assert back.header() == cfg.header()
    assert back.workers == 1 and back.out is None


def test_header_rejects_unknown_fields():
    with pytest.raises(ValueError):
        RunConfig.from_header({"command": "sweep", "bogus": 1})


def test_sweep_stdout_csv(capsys):
    assert main(["sweep", "--model", "level3", "--eps", "0.01"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# config:")
    assert "2.7344090266792545e-11" in out
    cfg, records = parse_table(out)
    assert cfg.command == "sweep" and cfg.model == "level3"
    assert len(records) == 1
    assert records[0].x == 0.01


def test_json_and_csv_agree(tmp_path):
    a = tmp_path / "t.csv"
    b = tmp_path / "t.json"
    base = ["sweep", "--model", "concat(6,2)", "--grid", "0.01:0.03:3"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--format", "json", "--out", str(b)]) == 0
    cfg_a, rec_a = parse_table(a.read_text())
    cfg_b, rec_b = parse_table(b.read_text())
    assert [r.y for r in rec_a] == [r.y for r in rec_b]
    assert cfg_a.header()["grid"] == cfg_b.header()["grid"]
    doc = json.loads(b.read_text())
    assert set(doc) == {"config", "records"}


def test_nan_rows_survive_both_formats(tmp_path):
    for fmt in ("csv", "json"):
        out = tmp_path / f"nan.{fmt}"
        assert main(["sweep", "--model", "level2", "--grid", "0.1:0.3:2",
                     "--format", fmt, "--out", str(out)]) == 0
        _, recs = parse_table(out.read_text())
        assert not math.isnan(recs[0].y)
        assert math.isnan(recs[1].y)


def test_simulate_worker_byte_identity(tmp_path):
    a = tmp_path / "w1.csv"
    b = tmp_path / "w3.csv"
    base = ["simulate", "--model", "hypercube_mc", "--level", "2",
            "--grid", "0.1:0.14:3", "--min-flips", "40", "--seed", "9"]
    assert main(base + ["--out", str(a), "--workers", "1"]) == 0
    assert main(base + ["--out", str(b), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_encode_worker_byte_identity(tmp_path):
    a = tmp_path / "w1.csv"
    b = tmp_path / "w4.csv"
    base = ["encode", "--p", "0.02", "--trials", "30000", "--seed", "4"]
    assert main(base + ["--out", str(a), "--workers", "1"]) == 0
    assert main(base + ["--out", str(b), "--workers", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_threshold_level3(capsys):
    assert main(["threshold", "--model", "level3"]) == 0
    captured = capsys.readouterr()
    assert "threshold" in captured.err
    _, recs = parse_table(captured.out)
    assert recs[0].x == recs[0].y == pytest.approx(0.1494145, abs=2e-6)
    assert recs[0].model == "level3"


def test_threshold_universal(capsys):
    assert main(["threshold", "--model", "universal"]) == 0
    captured = capsys.readouterr()
    _, recs = parse_table(captured.out)
    assert recs[0].x == pytest.approx(0.055986, abs=5e-5)
    assert recs[0].y == pytest.approx(0.131522, abs=2e-4)
    assert recs[0].model == "universal"


def test_threshold_needs_known_model(capsys):
    assert main(["threshold", "--model", "level7"]) == 1
    assert "error:" in capsys.readouterr().err


def test_encode_pcrit_row(capsys):
    assert main(["encode", "--pcrit"]) == 0
    captured = capsys.readouterr()
    assert "p_crit" in captured.err
    _, recs = parse_table(captured.out)
    assert recs[0].x == pytest.approx(0.0284619, abs=2e-6)
    assert recs[0].y == pytest.approx(pfail_bound(recs[0].x).p_fail,
                                      rel=1e-12)
    assert recs[0].model == "encode_pcrit"


def test_encode_bound_rows(capsys):
    assert main(["encode", "--bound", "--grid", "0.005:0.02:4"]) == 0
    _, recs = parse_table(capsys.readouterr().out)
    assert len(recs) == 4
    assert all(r.model == "encode_bound" for r in recs)
    ys = [r.y for r in recs]
    assert ys == sorted(ys)
    assert ys[-1] == pytest.approx(pfail_bound(0.02).p_fail, rel=1e-12)


def test_compare_vn_rows_paired_and_sorted(capsys):
    assert main(["compare-vn", "--grid", "0.1:0.12:2",
                 "--min-flips", "30", "--seed", "2"]) == 0
    _, recs = parse_table(capsys.readouterr().out)
    assert len(recs) == 4
    keys = [(r.x, r.model) for r in recs]
    assert keys == sorted(keys)
    assert [r.model for r in recs] == ["hypercube_mc", "vn_mc"] * 2
    assert all(r.n == 3 for r in recs)


def test_simulate_accepts_physical_rate(capsys):
    assert main(["simulate", "--model", "hypercube_mc", "--level", "2",
                 "--p", "0.02", "--min-flips", "30",
                 "--max-phases", "400000"]) == 0
    _, recs = parse_table(capsys.readouterr().out)
    assert recs[0].x == 0.02
    assert 0.0 <= recs[0].y < 0.1


def test_simulate_rejects_unknown_model(tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    for model in (["--model", "bogus"], []):
        assert main(["simulate", *model, "--eps", "0.1",
                     "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def test_simulate_rejects_bad_gate_error(tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    argv = ["simulate", "--model", "hypercube_mc", "--level", "1",
            "--eps", "1.5", "--out", str(out)]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    # the check must not be an assert, which -O strips
    proc = subprocess.run([sys.executable, "-O", "-m", "majmux.cli", *argv],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert not out.exists()


def test_level_out_of_range_exits_2(capsys):
    rc = main(["simulate", "--model", "vn_mc", "--eps", "0.1",
               "--level", "6"])
    assert rc == 2
    assert "--level" in capsys.readouterr().err


def test_error_leaves_no_partial_file(tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    assert main(["sweep", "--model", "nope", "--eps", "0.1",
                 "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_missing_grid_is_an_error(capsys):
    assert main(["simulate", "--model", "vn_mc"]) == 1
    assert "--grid" in capsys.readouterr().err


def test_malformed_grid_is_an_error(capsys):
    assert main(["sweep", "--model", "level2", "--grid", "oops"]) == 1
    assert "error:" in capsys.readouterr().err


def _src_env():
    src_dir = os.path.dirname(os.path.dirname(majmux.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "majmux.cli", "sweep", "--model", "level2",
         "--eps", "0.1"],
        capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0
    _, recs = parse_table(proc.stdout)
    assert recs[0].y == pytest.approx(0.013320770977, rel=1e-9)
