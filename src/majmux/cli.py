"""Command-line front end: sweeps, simulations, thresholds, and bounds.

Every command emits one table with the fixed columns
``x,y,y_lo,y_hi,model,n,seed`` (CSV with a one-line JSON config header, or
the equivalent JSON document), sorted by x, floats rendered with 17
significant digits.  A fixed config and seed reproduce the output byte for
byte at any worker count: parallelism only distributes work whose
substreams are already pinned to grid positions.  Files are written
atomically; a failing run never leaves a partial artifact.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from .analysis import (SweepRecord, correction_threshold, mc_point, sweep,
                       universal_threshold)
from .chains import build_level2_chain, build_level3_chain
from .encoding import cascade_mc, p_crit, pfail_bound
from .netsim import run_parallel

COLUMNS = ("x", "y", "y_lo", "y_hi", "model", "n", "seed")
# excluded from the provenance header: fields that cannot change the numbers
_VOLATILE = ("workers", "out")


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, fully serializable.

    The header embedded in every artifact is this config minus the fields
    that cannot affect the numbers (workers, out); re-parsing the header
    reconstructs a config equivalent to the original.
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
    phases: int = 12
    pcrit: bool = False
    bound: bool = False
    format: str = "csv"
    out: str | None = None
    workers: int = 1

    def header(self) -> dict:
        d = asdict(self)
        for k in _VOLATILE:
            del d[k]
        return d

    @classmethod
    def from_header(cls, d: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown header fields: {sorted(unknown)}")
        return cls(**d)


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
        config = RunConfig.from_header(doc["config"])
        records = [SweepRecord(note="", **row) for row in doc["records"]]
        return config, records
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# config: "):
        raise ValueError("missing config header line")
    config = RunConfig.from_header(json.loads(lines[0][len("# config: "):]))
    rows = list(csv.reader(lines[1:]))
    if rows[0] != list(COLUMNS):
        raise ValueError("unexpected column header")
    records = []
    for row in rows[1:]:
        if not row:
            continue
        x, y, y_lo, y_hi, model, n, seed = row
        records.append(SweepRecord(x=float(x), y=float(y), y_lo=float(y_lo),
                                   y_hi=float(y_hi), model=model, n=int(n),
                                   seed=int(seed)))
    return config, records


def _emit(config: RunConfig, records: list[SweepRecord]) -> None:
    text = (_render_csv if config.format == "csv" else _render_json)(
        config, records)
    if config.out is None:
        sys.stdout.write(text)
        return
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
    if config.grid is not None:
        try:
            lo, hi, steps = config.grid.split(":")
            pts = np.linspace(float(lo), float(hi), int(steps))
        except ValueError as err:
            raise ValueError(f"bad --grid {config.grid!r}: {err}") from None
        return [float(x) for x in pts]
    for single in (config.eps, config.p):
        if single is not None:
            return [single]
    raise ValueError("need --grid, --eps, or --p")


def _cmd_sweep(config: RunConfig) -> list[SweepRecord]:
    if config.model is None:
        raise ValueError("sweep needs --model")
    return sweep(config.model, _parse_grid(config), seed=config.seed,
                 min_flips=config.min_flips, max_phases=config.max_phases,
                 workers=config.workers)


def _cmd_simulate(config: RunConfig) -> list[SweepRecord]:
    if config.model not in ("hypercube_mc", "vn_mc"):
        raise ValueError("simulate needs --model hypercube_mc|vn_mc")
    use_p = config.p is not None and config.eps is None
    jobs = [(config.model, config.level, use_p, x, config.seed, i,
             config.min_flips, config.max_phases)
            for i, x in enumerate(_parse_grid(config))]
    return run_parallel(mc_point, jobs, config.workers)


def _cmd_threshold(config: RunConfig) -> list[SweepRecord]:
    if config.model == "universal":
        p_star, eps_star = universal_threshold()
        print(f"universal threshold: p* = {p_star:.17g} "
              f"(eps* = {eps_star:.17g})", file=sys.stderr)
        return [SweepRecord(x=p_star, y=eps_star, y_lo=eps_star, y_hi=eps_star,
                            model="universal", n=3, seed=config.seed)]
    if config.model in ("level2", "level3"):
        chain = (build_level2_chain() if config.model == "level2"
                 else build_level3_chain())
        star = correction_threshold(chain)
        print(f"{config.model} threshold: eps* = {star:.17g}",
              file=sys.stderr)
        n = 2 if config.model == "level2" else 3
        return [SweepRecord(x=star, y=star, y_lo=star, y_hi=star,
                            model=config.model, n=n, seed=config.seed)]
    raise ValueError("threshold needs --model level2|level3|universal")


def _cmd_encode(config: RunConfig) -> list[SweepRecord]:
    if config.pcrit:
        root = p_crit()
        print(f"encoding critical rate: p_crit = {root:.17g}",
              file=sys.stderr)
        bound = pfail_bound(root).p_fail
        return [SweepRecord(x=root, y=bound, y_lo=bound, y_hi=bound,
                            model="encode_pcrit", n=3, seed=config.seed)]
    records = []
    for x in _parse_grid(config):
        if config.bound:
            y = pfail_bound(x).p_fail
            records.append(SweepRecord(x=x, y=y, y_lo=y, y_hi=y,
                                       model="encode_bound", n=3,
                                       seed=config.seed))
        else:
            st = cascade_mc(x, seed=config.seed, trials=config.trials,
                            phases=config.phases, workers=config.workers)
            records.append(SweepRecord(x=x, y=st.p_hat, y_lo=st.ci95[0],
                                       y_hi=st.ci95[1], model="cascade_mc",
                                       n=3, seed=config.seed))
    return records


def _cmd_compare_vn(config: RunConfig) -> list[SweepRecord]:
    xs = _parse_grid(config)
    jobs = [(model, 3, False, x, config.seed, i, config.min_flips,
             config.max_phases)
            for i, x in enumerate(xs)
            for model in ("hypercube_mc", "vn_mc")]
    records = run_parallel(mc_point, jobs, config.workers)
    records.sort(key=lambda r: (r.x, r.model))
    return records


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
    _emit(config, records)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="majmux",
        description="Noisy majority-vote networks: simulation and analysis.")
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {
        "sweep": "evaluate a model over a parameter grid",
        "simulate": "bit-level logical rate of the corrected register",
        "threshold": "self-consistency thresholds (level2, level3, universal)",
        "encode": "fan-out cascade: failure bound, p_crit, or Monte Carlo",
        "compare-vn": "hypercube wiring vs randomized multiplexing at 81 bits",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", help="model tag (see command help)")
        p.add_argument("--level", type=int, default=2,
                       help="code level n; the register has 3^(n+1) bits")
        p.add_argument("--eps", type=float, help="per-output gate error")
        p.add_argument("--p", type=float, help="physical component error")
        p.add_argument("--grid", help="lo:hi:steps inclusive linear grid")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--min-flips", type=int, default=100, dest="min_flips")
        p.add_argument("--max-phases", type=int, default=10_000_000,
                       dest="max_phases")
        p.add_argument("--trials", type=int, default=100_000,
                       help="encode: Monte Carlo trials")
        p.add_argument("--phases", type=int, default=12,
                       help="encode: correction phases before scoring")
        p.add_argument("--pcrit", action="store_true",
                       help="encode: print the critical rate and exit")
        p.add_argument("--bound", action="store_true",
                       help="encode: evaluate the analytic bound, no MC")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default: stdout)")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.level < 1 or args.level > 5:
        print("error: --level must be in 1..5", file=sys.stderr)
        return 2
    return run(RunConfig(**vars(args)))


if __name__ == "__main__":
    sys.exit(main())
