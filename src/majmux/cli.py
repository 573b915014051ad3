"""Command-line front end: sweeps, simulations, thresholds, and bounds.

Every command emits one table with the fixed columns
``x,y,y_lo,y_hi,model,n,seed`` (CSV with a one-line JSON config header, or
the equivalent JSON document), sorted by x, floats rendered with 17
significant digits.  ``_OPTIONS`` alone decides which options a command
accepts and which its header records (one row per ``encode`` mode), and
``main`` and ``RunConfig.from_header`` both check a config by it through
``_checked``.  A fixed config and seed reproduce the output byte for byte
at any worker count: parallelism only distributes work whose substreams
are already pinned to grid positions.  Files are written atomically; a
failing run never leaves a partial artifact.

A process enters through ``entry`` (``python -m majmux.cli`` and the
``majmux`` console script), which runs ``main`` with Python's cyclic
garbage collector off and its objects frozen at exit; ``main`` itself, as
tests and callers run it in-process, leaves the collector alone.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
from typing import NamedTuple

from .rates import SweepRecord, linspace, p_crit, pfail_bound

COLUMNS = ("x", "y", "y_lo", "y_hi", "model", "n", "seed")
# a CSV field converts to its column's type; a JSON value must have it
_TYPES = dict(zip(COLUMNS, (float, float, float, float, str, int, int)))
# the options each row reads, besides _RECORDED and _VOLATILE; a row
# "command --flag" is the mode that a set flag picks
_OPTIONS = {
    "sweep": ("model", "eps", "grid"),
    "simulate": ("model", "level", "eps", "p", "grid", "min_flips",
                 "max_phases"),
    "threshold": ("model",),
    "encode": ("p", "grid", "trials"),
    "encode --bound": ("bound", "p", "grid"),
    "encode --pcrit": ("pcrit",),
    "compare-vn": ("eps", "grid", "min_flips", "max_phases"),
}
# every command takes these too; only _RECORDED goes into the header
_RECORDED = ("seed", "format")
_VOLATILE = ("workers", "out")  # cannot change the numbers


def _row(fields) -> str:
    """The _OPTIONS row that a command's fields (a dict) pick."""
    command = fields.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    modes = [row for row in _OPTIONS if row.startswith(f"{command} --")
             and fields.get(row.split(" --")[1])]
    return modes[0] if modes else command


def _checked(fields: dict, accepted: tuple[str, ...]) -> "RunConfig":
    """The config of typed options or header keys, refused unless its row
    reads every key (``accepted`` keys aside) and every value is valid."""
    row = _row(fields)
    unread = set(fields) - {"command", *_OPTIONS[row], *accepted}
    if unread:
        raise ValueError(f"{row} does not read {sorted(unread)}")
    for key, value in fields.items():
        if key == "command" or (value is None
                                and RunConfig._field_defaults[key] is None):
            continue  # the command picked the row; None is an unset option
        kind = _ARGS[key].get("type", bool if "action" in _ARGS[key] else str)
        if type(value) is not kind:  # bool is an int, but not here
            raise ValueError(f"--{key.replace('_', '-')} must be "
                             f"{kind.__name__}, got {value!r}")
    config = RunConfig(**fields)
    for key, rule, ok in (
            ("level", "in 1..5", config.level in range(1, 6)),
            ("format", "csv or json", config.format in ("csv", "json")),
            ("seed", ">= 0", config.seed >= 0),
            ("workers", ">= 1", config.workers >= 1)):
        if not ok:
            raise ValueError(f"--{key} must be {rule}")
    return config


class RunConfig(NamedTuple):
    """One CLI invocation, fully serializable.

    The header embedded in every artifact is the command and the options
    of its _OPTIONS row, minus the fields that cannot affect the numbers
    (workers, out); re-parsing the header reconstructs a config equivalent
    to the original.
    """

    command: str
    model: str | None = None
    level: int = 2
    eps: float | None = None
    p: float | None = None
    grid: str | None = None
    seed: int = 0
    min_flips: int = 100
    max_phases: int = 10_000_000
    trials: int = 100_000
    pcrit: bool = False
    bound: bool = False
    format: str = "csv"
    out: str | None = None
    workers: int = 1

    def header(self) -> dict:
        keys = ("command", *_OPTIONS[_row(self._asdict())], *_RECORDED)
        return {k: getattr(self, k) for k in keys}

    @classmethod
    def from_header(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config header must be a JSON object, got {d!r}")
        return _checked(d, _RECORDED)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _render_csv(config: RunConfig, records: list[SweepRecord]) -> str:
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config.header(), sort_keys=True)
              + "\n")
    writer = csv.writer(buf, lineterminator="\n")  # quotes model tags with commas
    writer.writerow(COLUMNS)
    for r in records:
        writer.writerow([_fmt(getattr(r, c)) for c in COLUMNS])
    return buf.getvalue()


def _render_json(config: RunConfig, records: list[SweepRecord]) -> str:
    doc = {
        "config": config.header(),
        "records": [{c: getattr(r, c) for c in COLUMNS} for r in records],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def parse_table(text: str) -> tuple[RunConfig, list[SweepRecord]]:
    """Reconstruct the config and records from an emitted artifact."""
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        if not {"config", "records"} <= doc.keys():
            raise ValueError("JSON artifact needs config and records")
        config = RunConfig.from_header(doc["config"])
        if not isinstance(doc["records"], list):
            raise ValueError("JSON records must be a list")
        return config, [_record(row) for row in doc["records"]]
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# config: "):
        raise ValueError("missing config header line")
    config = RunConfig.from_header(json.loads(lines[0][len("# config: "):]))
    rows = list(csv.reader(lines[1:]))
    if not rows or rows[0] != list(COLUMNS):
        raise ValueError("unexpected column header")
    return config, [SweepRecord(*(kind(v) for kind, v in
                                  zip(_TYPES.values(), row, strict=True)))
                    for row in rows[1:] if row]


def _record(row) -> SweepRecord:
    """A JSON record, one value of each column's _TYPES type (a float
    column also takes an int, NaN included; no column takes a bool)."""
    if not (isinstance(row, dict) and sorted(row) == sorted(COLUMNS) and all(
            type(row[key]) in ((int, float) if kind is float else (kind,))
            for key, kind in _TYPES.items())):
        raise ValueError(f"JSON record {row!r} is not one value of each "
                         f"column's type, {', '.join(COLUMNS)}")
    return SweepRecord(**{key: kind(row[key]) for key, kind in _TYPES.items()})


def _emit(config: RunConfig, records: list[SweepRecord]) -> None:
    text = (_render_csv if config.format == "csv" else _render_json)(
        config, records)
    if config.out is None:
        sys.stdout.write(text)
        return
    import tempfile  # only a file artifact needs it
    dest = os.path.abspath(config.out)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(dest),
                               prefix=os.path.basename(dest) + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, dest)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_grid(config: RunConfig) -> list[float]:
    given = [f"--{k}" for k in ("eps", "p", "grid")
             if getattr(config, k) is not None]
    if len(given) > 1:
        raise ValueError(f"give only one of {', '.join(given)}")
    if config.grid is not None:
        try:
            lo, hi, steps = config.grid.split(":")
            lo, hi, steps = float(lo), float(hi), int(steps)
            if steps < 2 or not -math.inf < lo < hi < math.inf:
                # one point is --eps or --p
                raise ValueError("need finite lo < hi and steps >= 2")
        except ValueError as err:
            raise ValueError(f"bad --grid {config.grid!r}: {err}") from None
        return linspace(lo, hi, steps)
    if given:
        x = config.eps if config.eps is not None else config.p
        if not math.isfinite(x):
            raise ValueError(f"grid point {x} is not finite")
        return [x]
    raise ValueError("need " + " or ".join(
        f"--{k}" for k in ("eps", "p", "grid")
        if k in _OPTIONS[_row(config._asdict())]))


def _cmd_sweep(config: RunConfig) -> list[SweepRecord]:
    """Evaluate an analytic model over a parameter grid."""
    from .analysis import sweep
    if config.model is None:
        raise ValueError("sweep needs --model")
    return sweep(config.model, _parse_grid(config), seed=config.seed)


def _cmd_simulate(config: RunConfig) -> list[SweepRecord]:
    """Bit-level logical rate of the corrected register."""
    from .analysis import model_tags
    if config.model is None:
        raise ValueError("simulate needs --model "
                         + "|".join(model_tags("mc")))
    return _mc_grid(config, [config.model], config.level,
                    config.p is not None)


def _mc_grid(config: RunConfig, models: list, level: int,
             use_p: bool) -> list[SweepRecord]:
    """``mc_point`` records of every model at every grid point, x-major.

    Each model's points are dealt round-robin into one share per worker,
    and each share is one job, one stack of points; every point keeps its
    grid position's substream, so the records do not depend on the split.
    """
    from .analysis import mc_point
    from .netsim import run_parallel
    points = [(x, i) for i, x in enumerate(_parse_grid(config))]
    shares = [points[w::config.workers]
              for w in range(min(config.workers, len(points)))]
    jobs = [(model, level, use_p, share, config.seed, config.min_flips,
             config.max_phases) for model in models for share in shares]
    done = run_parallel(mc_point, jobs, config.workers)
    records = {(job[0], i): record for job, recs in zip(jobs, done)
               for (_, i), record in zip(job[3], recs)}
    return [records[model, i] for _, i in points for model in models]


def _cmd_threshold(config: RunConfig) -> list[SweepRecord]:
    """Self-consistency thresholds (level2, level3, universal)."""
    from .analysis import (MODELS, chain_of, correction_threshold,
                           model_tags, universal_threshold)
    if config.model == "universal":
        p_star, eps_star = universal_threshold()
        print(f"universal threshold: p* = {p_star:.17g} "
              f"(eps* = {eps_star:.17g})", file=sys.stderr)
        return [SweepRecord(p_star, eps_star, eps_star, eps_star, "universal",
                            3, config.seed)]
    if config.model in model_tags("chain"):
        n = MODELS[config.model][1]
        star = correction_threshold(chain_of(config.model))
        print(f"{config.model} threshold: eps* = {star:.17g}",
              file=sys.stderr)
        return [SweepRecord(star, star, star, star, config.model, n,
                            config.seed)]
    raise ValueError("threshold needs --model "
                     + "|".join([*model_tags("chain"), "universal"]))


def _cmd_encode(config: RunConfig) -> list[SweepRecord]:
    """Fan-out cascade: failure bound, p_crit, or Monte Carlo."""
    if config.pcrit:
        root = p_crit()
        print(f"encoding critical rate: p_crit = {root:.17g}",
              file=sys.stderr)
        bound = pfail_bound(root).p_fail
        return [SweepRecord(root, bound, bound, bound, "encode_pcrit", 3,
                            config.seed)]
    grid = _parse_grid(config)
    if config.bound:
        ys = [math.nan if not 0.0 <= x <= 0.2
              else pfail_bound(x).p_fail for x in grid]
        return [SweepRecord(x, y, y, y, "encode_bound", 3, config.seed,
                            "p outside [0, 0.2]" if math.isnan(y) else "")
                for x, y in zip(grid, ys)]
    from .netsim import cascade_mc
    stats = [cascade_mc(x, seed=config.seed, trials=config.trials,
                        workers=config.workers) for x in grid]
    return [SweepRecord(x, st.p_hat, *st.ci95, "cascade_mc", 3, config.seed)
            for x, st in zip(grid, stats)]


def _cmd_compare_vn(config: RunConfig) -> list[SweepRecord]:
    """Hypercube wiring vs randomized multiplexing at 81 bits."""
    from .analysis import model_tags
    # x-major over an increasing grid, hypercube_mc first: sorted by x
    return _mc_grid(config, model_tags("mc"), 3, False)


_COMMANDS = {
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "threshold": _cmd_threshold,
    "encode": _cmd_encode,
    "compare-vn": _cmd_compare_vn,
}


def run(config: RunConfig) -> int:
    """Execute one command; returns 0 iff the artifact was fully written."""
    try:
        records = _COMMANDS[config.command](config)
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for r in records:
        if r.note:  # the artifacts carry no notes
            print(f"note: x={_fmt(r.x)}: {r.note}", file=sys.stderr)
    try:
        _emit(config, records)
    except OSError as err:
        print(f"error: cannot write {config.out or 'stdout'}: "
              f"{err.strerror or err}", file=sys.stderr)
        return 1
    return 0


# how argparse reads each option
_ARGS = {
    "model": dict(help="model tag (see command help)"),
    "level": dict(type=int, help="code level n; 3^(n+1) register bits"),
    "eps": dict(type=float, help="per-output gate error"),
    "p": dict(type=float, help="physical component error"),
    "grid": dict(help="lo:hi:steps inclusive linear grid"),
    "min_flips": dict(type=int, help="logical flips that end a point"),
    "max_phases": dict(type=int, help="register-phases that cap a point"),
    "trials": dict(type=int, help="Monte Carlo trials"),
    "pcrit": dict(action="store_true", help="critical rate and its bound"),
    "bound": dict(action="store_true", help="analytic bound, no Monte Carlo"),
    "seed": dict(type=int, help="root of every substream"),
    "workers": dict(type=int, help="processes; the output stays the same"),
    "format": dict(help="artifact format: csv or json"),
    "out": dict(help="output path (default: stdout)"),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="majmux",
        description="Noisy majority-vote networks: simulation and analysis.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        # no abbreviations: an unregistered --p must not resolve to --pcrit;
        # an option left out is absent here and takes its RunConfig default
        p = sub.add_parser(name, help=fn.__doc__, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        reads = [opt for row, opts in _OPTIONS.items()
                 if row.split(" --")[0] == name for opt in opts]
        for opt in dict.fromkeys((*reads, *_RECORDED, *_VOLATILE)):
            p.add_argument("--" + opt.replace("_", "-"), dest=opt,
                           **_ARGS[opt])
    return ap


def main(argv: list[str] | None = None) -> int:
    given = vars(_build_parser().parse_args(argv))
    try:
        config = _checked(given, _RECORDED + _VOLATILE)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return run(config)


def entry() -> None:
    """The process entry point (``python -m majmux.cli`` and the
    ``majmux`` console script): ``main()`` with the cyclic garbage
    collector off, then exit with its status.

    A process runs one command, and the cyclic garbage a command leaves
    does not grow with its work (a few hundred objects from argparse and
    from numpy's import), so the collector's passes are pure cost: young
    passes while numpy imports, and full passes over numpy's tracked
    objects at exit.  ``gc.freeze()`` moves every live object out of the
    interpreter's final collections; ``sys.exit`` still runs ``atexit``
    hooks and flushes the streams.  Forked pool workers inherit the
    disabled collector.  An in-process ``main()`` leaves the caller's
    collector as it was.
    """
    gc.disable()
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
