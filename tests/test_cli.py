import gc
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import majmux
from majmux.analysis import MODELS
from majmux.cli import (_OPTIONS, RunConfig, _build_parser, _fmt, main,
                        parse_table, run)
from majmux.netsim import (Componentwise, Idealized, estimate_logical_rate,
                           substream)
from majmux.rates import pfail_bound

# each command and the options of all its _OPTIONS rows
_READS = {}
for _row, _opts in _OPTIONS.items():
    _READS.setdefault(_row.split(" --")[0], set()).update(_opts)


def test_fmt_keeps_full_float_precision():
    assert _fmt(1 / 3) == "0.33333333333333331"
    for v in (2.7344090266792545e-11, 0.1494144929, 1e300, -0.0):
        assert float(_fmt(v)) == v
    assert _fmt(7) == "7"
    assert _fmt("level3") == "level3"


# one small run per _OPTIONS row
_RUNS = {
    "sweep": ["sweep", "--model", "level3", "--grid", "0.01:0.02:2"],
    "simulate": ["simulate", "--model", "hypercube_mc", "--level", "1",
                 "--eps", "0.1", "--min-flips", "5", "--seed", "3"],
    "threshold": ["threshold", "--model", "level2"],
    "encode": ["encode", "--p", "0.02", "--trials", "3000", "--seed", "2"],
    "encode --bound": ["encode", "--bound", "--grid", "0.005:0.02:4"],
    "encode --pcrit": ["encode", "--pcrit", "--seed", "5"],
    "compare-vn": ["compare-vn", "--eps", "0.12", "--min-flips", "5"],
}


def test_header_round_trip_drops_volatile_fields(tmp_path):
    cfg = RunConfig(command="sweep", model="level3", eps=0.01,
                    workers=8, out="foo.csv")
    back = RunConfig.from_header(cfg.header())
    assert back.header() == cfg.header()
    assert back.workers == 1 and back.out is None
    # the header alone re-runs every row's artifact byte for byte
    assert set(_RUNS) == set(_OPTIONS)
    for row, argv in _RUNS.items():
        for fmt in ("csv", "json"):
            first, again = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
            assert main([*argv, "--format", fmt, "--workers", "2",
                         "--out", str(first)]) == 0, row
            config, _ = parse_table(first.read_text())
            assert run(config._replace(out=str(again))) == 0
            assert again.read_bytes() == first.read_bytes(), row


def test_header_rejects_unknown_fields():
    for header in (
            {"command": "sweep", "bogus": 1},
            {"command": "bogus"},
            {"command": ["sweep"]},
            {"command": "encode --bound", "bound": True},
            # pcrit and bound together, with keys neither mode reads
            {"command": "encode", "pcrit": True, "bound": True, "p": 0.02,
             "trials": 5, "grid": None, "seed": 0, "format": "csv"}):
        with pytest.raises(ValueError):
            RunConfig.from_header(header)


def test_sweep_stdout_csv(capsys):
    assert main(["sweep", "--model", "level3", "--eps", "0.01"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# config:")
    assert "2.7344090258511611e-11" in out
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


def _worker_bytes(base, tmp_path):
    """The artifact of ``base`` at 1, 2 and 3 workers."""
    out = []
    for workers in ("1", "2", "3"):
        path = tmp_path / f"w{workers}.csv"
        assert main(base + ["--out", str(path), "--workers", workers]) == 0
        out.append(path.read_bytes())
    return out


def test_simulate_worker_byte_identity(tmp_path):
    # 1, 2 and 3 workers split the grid into one, two and three stacks,
    # and a NaN point and stops at min_flips and at the cap all take part
    for base in (
            ["simulate", "--model", "hypercube_mc", "--level", "2",
             "--grid", "0.1:0.14:3", "--min-flips", "40", "--seed", "9"],
            ["simulate", "--model", "vn_mc", "--level", "2",
             "--grid", "0:0.15:4", "--min-flips", "40", "--max-phases",
             "30000", "--seed", "9"]):
        a, b, c = _worker_bytes(base, tmp_path)
        assert a == b == c


def test_compare_vn_worker_byte_identity(tmp_path):
    a, b, c = _worker_bytes(["compare-vn", "--grid", "0.1:0.13:4",
                             "--min-flips", "20", "--max-phases", "40000",
                             "--seed", "3"], tmp_path)
    assert a == b == c


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


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "hypercube_mc", "--level", "2",
     "--grid", "0.1:0.14:3", "--workers", "2"],
    ["simulate", "--model", "vn_mc", "--level", "2", "--eps", "0.12"],
    ["simulate", "--model", "hypercube_mc", "--level", "1", "--p", "0.05"],
    ["simulate", "--model", "vn_mc", "--level", "1", "--p", "0.05"],
    ["compare-vn", "--grid", "0.1:0.12:2", "--max-phases", "8000"],
])
def test_mc_records_follow_the_one_seed_rule(argv, capsys):
    # grid point i of a Monte Carlo command is the one-point estimator run
    # on PCG64(substream(seed, i)), the rule encoder shards follow too
    assert main([*argv, "--min-flips", "15", "--seed", "6"]) == 0
    config, recs = parse_table(capsys.readouterr().out)
    level = 3 if config.command == "compare-vn" else config.level
    xs = sorted({r.x for r in recs})
    assert len(recs) == len(xs) * (2 if config.command == "compare-vn" else 1)
    for r in recs:
        noise = (Componentwise.from_p(r.x) if config.p is not None
                 else Idealized(r.x))
        stats = estimate_logical_rate(
            level, MODELS[r.model][2], noise, substream(6, xs.index(r.x)),
            min_flips=15, max_phases=config.max_phases)
        assert (r.y, r.y_lo, r.y_hi) == (stats.p_hat, *stats.ci95), r


def test_simulate_accepts_physical_rate(capsys):
    assert main(["simulate", "--model", "hypercube_mc", "--level", "2",
                 "--p", "0.02", "--min-flips", "30",
                 "--max-phases", "400000"]) == 0
    _, recs = parse_table(capsys.readouterr().out)
    assert recs[0].x == 0.02
    assert 0.0 <= recs[0].y < 0.1


def test_unwritable_out_exits_1_and_leaves_no_temp_file(tmp_path, capsys):
    (tmp_path / "adir").mkdir()
    for out in (tmp_path / "missing" / "x.csv", tmp_path / "adir"):
        assert main(["encode", "--pcrit", "--out", str(out)]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"error: cannot write {out}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]
        assert not any((tmp_path / "adir").iterdir())


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


def test_simulate_rejects_eps_with_p(tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    assert main(["simulate", "--model", "hypercube_mc", "--level", "1",
                 "--eps", "0.1", "--p", "0.3", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_level_only_on_simulate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--model", "hypercube_mc", "--level", "1",
              "--eps", "0.1"])
    assert exc.value.code == 2
    assert "--level" in capsys.readouterr().err


# a value each option parses; flags take none.  No command reads --phases:
# encode runs its fixed 12 correction phases.
_VALUES = {"model": ["level3"], "level": ["1"], "eps": ["0.1"], "p": ["0.02"],
           "grid": ["0.1:0.2:2"], "min_flips": ["3"], "max_phases": ["64"],
           "trials": ["5"], "pcrit": [], "bound": [], "phases": ["12"]}


def _flag(name):
    return "--" + name.replace("_", "-")


@pytest.mark.parametrize("argv", [
    ["compare-vn", "--p", "0.11"],
    ["encode", "--eps", "0.02"],
    ["sweep", "--model", "level3", "--p", "0.01"],
    ["threshold", "--model", "level3", "--eps", "0.1"],
    ["threshold", "--model", "level3", "--grid", "0.1:0.2:2"],
] + [[command, _flag(name), *_VALUES[name]]
     for command, reads in _READS.items()
     for name in _VALUES if name not in reads])
def test_command_rejects_x_option_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag = [a for a in argv if a.startswith("--")][-1]
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_header_holds_the_command_and_its_options():
    for row, reads in _OPTIONS.items():
        command, *modes = row.split(" --")
        header = RunConfig(command, **dict.fromkeys(modes, True), workers=3,
                           out="x.csv").header()
        assert set(header) == {"command", *reads, "seed", "format"}
        assert RunConfig.from_header(header).header() == header
        for unread in (k for k in _VALUES if k not in reads):
            with pytest.raises(ValueError, match=row):
                RunConfig.from_header({**header, unread: header.get(unread)})
        for volatile in ("workers", "out"):
            with pytest.raises(ValueError):
                RunConfig.from_header({**header, volatile: None})


@pytest.mark.parametrize("argv", [
    ["sweep", "--model", "level3", "--eps", "0.5"],
    ["simulate", "--model", "vn_mc", "--eps", "0.1"],
    ["simulate", "--model", "vn_mc", "--p", "0.02"],
    ["encode", "--p", "0.02"],
    ["encode", "--bound", "--p", "0.02"],
])
def test_grid_with_a_single_point_is_an_error(argv, tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    assert main([*argv, "--grid", "0.01:0.02:2", "--out", str(out)]) == 1
    assert "give only one of" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--pcrit", "--bound"],
    ["--pcrit", "--p", "0.02"],
    ["--pcrit", "--grid", "0.01:0.02:2"],
    ["--pcrit", "--trials", "7"],
    ["--bound", "--p", "0.02", "--trials", "7"],
    ["--bound", "--grid", "0.01:0.02:2", "--trials", "100000"],
    ["--pcrit", "--trials", "5"],
    ["--pcrit", "--bound", "--p", "0.02", "--trials", "5"],
])
def test_encode_modes_are_exclusive(argv, tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    assert main(["encode", *argv, "--out", str(out)]) == 2
    assert "does not read" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="does not read"):
        RunConfig.from_header(_typed(["encode", *argv]))


def _typed(argv):
    """The options ``argv`` types, as a header would record them."""
    return vars(_build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["threshold", "--model", "level2", "--trials", "5", "--pcrit",
     "--min-flips", "3"],
    ["encode", "--pcrit", "--p", "0.02", "--bound"],
    ["compare-vn", "--eps", "0.1", "--model", "bogus"],
    ["sweep", "--model", "level3", "--grid", "0.01:0.02:2", "--eps", "0.5"],
    ["encode", "--bound", "--grid", "0.01:0.02:2", "--trials", "7",
     "--model", "bogus"],
    ["sweep", "--model", "concat(6,2)", "--eps", "0.1", "--min-flips", "3",
     "--pcrit", "--bound"],
])
def test_ignored_options_fail_the_run(argv, tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    try:
        rc = main([*argv, "--out", str(out)])
    except SystemExit as exc:
        rc = exc.code
    assert rc != 0
    assert not out.exists()


def test_sweep_and_simulate_share_the_eps_domain(tmp_path, capsys):
    assert main(["sweep", "--model", "vn_mc", "--eps", "0.1"]) == 1
    assert "simulate --level 3" in capsys.readouterr().err
    rows = {}
    for cmd in (["simulate", "--model", "vn_mc", "--level", "3"],
                ["compare-vn"]):
        out = tmp_path / f"{cmd[0]}.csv"
        assert main([*cmd, "--eps", "0.7", "--out", str(out)]) == 0
        rows[cmd[0]] = out.read_text().splitlines()[2:]
        _, recs = parse_table(out.read_text())
        assert all(math.isnan(r.y) and r.n == 3 for r in recs)
    assert rows["simulate"] == [r for r in rows["compare-vn"]
                                if ",vn_mc," in r]


def test_level_out_of_range_exits_2(tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    for level in ("6", "-1", "9", "0"):
        argv = ["simulate", "--model", "vn_mc", "--eps", "0.1",
                "--level", level]
        assert main([*argv, "--out", str(out)]) == 2
        assert "--level" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match="--level"):
            RunConfig.from_header(_typed(argv))


def test_format_other_than_csv_or_json_exits_2(tmp_path, capsys):
    out = tmp_path / "artifact.xml"
    for argv in _RUNS.values():
        assert main([*argv, "--format", "xml", "--out", str(out)]) == 2
        assert "--format" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match="--format"):
            RunConfig.from_header({**_typed(argv), "format": "xml"})


def test_negative_seed_exits_2_on_every_row(tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    for argv in _RUNS.values():
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match="--seed"):
            RunConfig.from_header({**_typed(argv), "seed": -1})


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_exits_2(workers, tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    for row in ("simulate", "encode"):
        argv = [*_RUNS[row], "--workers", workers, "--out", str(out)]
        assert main(argv) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "hypercube_mc", "--level", "1", "--p", "0.45"],
    ["encode", "--p", "0.35", "--trials", "100"],
])
def test_rates_a_run_never_reads_are_clamped_silently(argv, tmp_path):
    # epsilon and epsilon_zero pass 1 at p = 0.45, epsilon_zero at 0.35;
    # componentwise gates read neither, the cascade's corrector epsilon only
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out", str(tmp_path / "artifact.csv")]) == 0
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("budget", [
    ["--max-phases", "0"], ["--min-flips", "0"], ["--min-flips", "-3"]])
@pytest.mark.parametrize("command", [
    ["simulate", "--model", "hypercube_mc", "--level", "2"], ["compare-vn"]])
def test_empty_run_budget_is_an_error(command, budget, tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    assert main([*command, "--eps", "0.1", *budget, "--out", str(out)]) == 1
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--model", "vn_mc", "--level", "3"], ["compare-vn"]])
def test_empty_run_budget_fails_a_nan_point_too(command, tmp_path, capsys):
    # at eps 0.7 the point is a NaN row and nothing runs; the bad budget
    # is refused there as it is at 0.1
    out = tmp_path / "artifact.csv"
    for eps in ("0.7", "0.1"):
        for budget in (["--min-flips", "0"], ["--max-phases", "0"]):
            assert main([*command, "--eps", eps, *budget,
                         "--out", str(out)]) == 1
            assert "budget" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("header, argv", [
    ({"command": "sweep", "model": "level3", "eps": "0.1"},
     ["sweep", "--model", "level3", "--eps", "0.1x"]),
    ({"command": "simulate", "model": "vn_mc", "eps": 0.1, "min_flips": "5"},
     ["simulate", "--model", "vn_mc", "--eps", "0.1", "--min-flips", "5.0"]),
    ({"command": "simulate", "model": "vn_mc", "eps": 0.1, "level": True},
     ["simulate", "--model", "vn_mc", "--eps", "0.1", "--level", "true"]),
    ({"command": "encode", "pcrit": 1}, ["encode", "--pcrit", "1"]),
])
def test_header_value_of_the_wrong_type(header, argv, capsys):
    # refused where the command line exits 2, not with a TypeError in run
    with pytest.raises(ValueError, match="must be"):
        RunConfig.from_header(header)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_error_leaves_no_partial_file(tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    for model in ("nope", "concat(5,2)", "concat(6,9)", "concat(6, 2)"):
        assert main(["sweep", "--model", model, "--grid", "0.01:0.02:2",
                     "--out", str(out)]) == 1
        assert "error: unknown analytic model" in capsys.readouterr().err
        assert not out.exists()


_HEADER = "# config: " + json.dumps(
    RunConfig(command="threshold", model="level2").header())
_JSON = '{"config": ' + _HEADER[len("# config: "):] + ', "records": %s}'


@pytest.mark.parametrize("text", [
    "",
    "x,y,y_lo,y_hi,model,n,seed\n",
    _HEADER + "\n",
    _HEADER,
    _HEADER + "\nx,y\n",
    '{"records": []}',
    '{"config": {"command": "encode", "pcrit": true}}',
    "{",
    "# config: []\nx,y,y_lo,y_hi,model,n,seed\n",
    '{"config": [], "records": []}',
    '{"config": ' + _HEADER[len("# config: "):] + ', "records": [{"x": 1}]}',
    *[_JSON % records for records in (
        '[{"x": "oops", "y": null, "y_lo": [], "y_hi": 1, "model": 3, '
        '"n": "2", "seed": 0.5}]',
        '[{"x": 1, "y": 1, "y_lo": 1, "y_hi": 1, "model": "m", "n": true, '
        '"seed": 0}]',
        '[{"x": false, "y": 1, "y_lo": 1, "y_hi": 1, "model": "m", "n": 2, '
        '"seed": 0}]',
        '{}')],
], ids=["empty", "no_header", "header_line", "header_no_newline",
        "short_columns", "json_no_config", "json_no_records", "json_cut",
        "header_not_object", "json_config_not_object",
        "json_record_missing_columns", "json_record_mistyped",
        "json_record_bool_int", "json_record_bool_float",
        "json_records_not_list"])
def test_parse_table_rejects_malformed_artifacts(text):
    with pytest.raises(ValueError):
        parse_table(text)


def test_parse_table_types_json_records_as_csv_does():
    # an int in a float column (JSON writes 1.0 as 1.0, but a reader's
    # tool may not) and a NaN y, as off-domain rows carry
    _, (rec,) = parse_table(_JSON % (
        '[{"x": 1, "y": NaN, "y_lo": NaN, "y_hi": NaN, "model": "level2", '
        '"n": 2, "seed": 0}]'))
    assert type(rec.x) is float and rec.x == 1.0 and math.isnan(rec.y)
    assert (rec.model, rec.n, rec.seed) == ("level2", 2, 0)


def test_missing_grid_is_an_error(capsys):
    assert main(["simulate", "--model", "vn_mc"]) == 1
    assert "--grid" in capsys.readouterr().err


def test_malformed_grid_is_an_error(tmp_path, capsys):
    # no steps, a decreasing grid, one step that would drop hi, and an
    # infinite end: a single point is --eps or --p
    out = tmp_path / "artifact.csv"
    for argv in (["sweep", "--model", "level2", "--grid", "oops"],
                 ["sweep", "--model", "level3", "--grid", "0.1:0.2:0"],
                 ["sweep", "--model", "level3", "--grid", "0:inf:3"],
                 ["simulate", "--model", "hypercube_mc", "--level", "1",
                  "--grid", "0.2:0.1:2", "--min-flips", "5"],
                 ["sweep", "--model", "level2", "--grid", "0.1:0.5:1"]):
        assert main([*argv, "--out", str(out)]) == 1
        assert "error: bad --grid" in capsys.readouterr().err
        assert not out.exists()


def test_noted_rows_are_reported_on_stderr(tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    argv = ["sweep", "--model", "level3", "--grid", "0.2:0.3:3"]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "note: x=0.29999999999999999: eps outside [0, 0.25]"]
    # the artifact is the same whether or not anyone reads the notes
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text()
    assert "note" not in captured.out
    _, recs = parse_table(captured.out)
    assert [math.isnan(r.y) for r in recs] == [False, False, True]


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


# the work of a run at two sizes, one argv each
_CAPPED = ["--level", "3", "--eps", "0.1", "--min-flips", "1000000000",
           "--max-phases"]
_SIZED = {
    "simulate hypercube": [["simulate", "--model", "hypercube_mc", *_CAPPED,
                            phases] for phases in ("20000", "200000")],
    "simulate randomized": [["simulate", "--model", "vn_mc", *_CAPPED,
                             phases] for phases in ("20000", "200000")],
    "encode": [["encode", "--p", "0.02", "--trials", trials]
               for trials in ("3000", "30000")],
    "sweep": [["sweep", "--model", "level3", "--grid", grid]
              for grid in ("0.01:0.1:3", "0.01:0.1:300")],
}


def _cyclic_garbage(argv) -> int:
    """Objects in unreachable cycles that ``main(argv)`` leaves behind,
    run with the collector off and counted before it is back on."""
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("small, large", _SIZED.values(), ids=_SIZED)
def test_cyclic_garbage_of_a_run_does_not_grow_with_its_work(small, large,
                                                             capsys):
    # entry() runs a command with the collector off; that holds memory
    # flat only if the cycles a run leaves do not grow with its size
    _cyclic_garbage(small)  # first imports leave garbage of their own
    assert _cyclic_garbage(small) == _cyclic_garbage(large)


def test_main_leaves_the_callers_collector_as_it_was(capsys):
    frozen = gc.get_freeze_count()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert main(_RUNS["simulate"]) == 0
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
    finally:
        gc.enable()


_ENTRIES = {
    "module": ["-m", "majmux.cli"],
    # as the console script's wrapper calls it; entry() exits by itself
    "script": ["-c", "from majmux.cli import entry; entry()"],
}


def _entry(how, argv):
    """A fresh process running ``argv`` through entry(), as ``python -m
    majmux.cli`` or as the ``majmux`` console script."""
    return subprocess.run([sys.executable, *_ENTRIES[how], *argv],
                          capture_output=True, env=_src_env(), timeout=120)


@pytest.mark.parametrize("how", _ENTRIES)
@pytest.mark.parametrize("argv", [
    ["sweep", "--model", "level3", "--grid", "0.01:0.1:4"],
    *[["compare-vn", "--grid", "0.1:0.13:3", "--min-flips", "20",
       "--max-phases", "40000", "--seed", "3", "--workers", workers]
      for workers in ("1", "2")],
], ids=["analytic", "monte-carlo-1-worker", "monte-carlo-2-workers"])
def test_entry_prints_the_in_process_artifact(how, argv, capsys):
    # pool workers fork from a process whose collector is off
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    proc = _entry(how, argv)
    assert (proc.returncode, proc.stdout) == (0, want)


@pytest.mark.parametrize("how", _ENTRIES)
def test_entry_exits_with_mains_status_and_error_line(how, tmp_path):
    out = tmp_path / "artifact.csv"
    for argv, code, line in (
            (["sweep", "--model", "nope", "--eps", "0.01", "--out", str(out)],
             1, "error: unknown analytic model"),
            (["simulate", "--model", "vn_mc", "--level", "2", "--eps", "0.1",
              "--min-flips", "0", "--out", str(out)],
             1, "error: need n >= 0 and a budget >= 1"),
            (["encode", "--pcrit", "--out", str(tmp_path / "no" / "x.csv")],
             1, f"error: cannot write {tmp_path / 'no' / 'x.csv'}: "),
            (["simulate", "--model", "vn_mc", "--level", "9", "--eps", "0.1",
              "--out", str(out)], 2, "error: --level must be in 1..5"),
            (["sweep", "--bogus", "--out", str(out)],
             2, "majmux: error: unrecognized arguments: --bogus")):
        proc = _entry(how, argv)
        last = proc.stderr.decode().splitlines()[-1]
        assert (proc.returncode, proc.stdout) == (code, b""), argv
        assert last.startswith(line), argv
        assert list(tmp_path.iterdir()) == [], argv  # not even a temp file
    proc = _entry(how, ["encode", "--pcrit", "--out", str(out)])
    assert (proc.returncode, proc.stdout) == (0, b"")
    assert parse_table(out.read_text())[0].pcrit
