"""majmux benchmark: the README's CLI commands timed as processes, plus a
traced in-process run that times each layer's public API.

    python3 perfbench/run.py --workload hypercube --seed 1 --seconds 27 --trace 0

``--trace 0`` repeats the workload's command sequence (one ``python -m
majmux.cli`` child at a time, ``--workers 1``) for ``--seconds`` and reports
the end-to-end metrics of BENCHMARK.json as medians over the repetitions,
each calibrated against a fixed task timed in the same repetition (see
README.md).  ``--trace 1`` makes one traced pass instead and reports the
per-layer metrics.  ``--workload all`` runs every workload in turn.  Every
artifact is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results,
provenance and spans are also written under ``perfbench/out/``.

The tree measured is ``src/`` of the checkout holding this file; the
benchmark exits with status 2 and no result when it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# A fixed task that uses nothing from the repository: interpreter start,
# numpy import, a pure-Python loop, small-array numpy work like the register
# simulations and wide-array work like the encode shards.  The host's speed
# swings by a third within seconds as its other tenants come and go; each
# repetition's timings are divided by this task's time in the same
# repetition and reported at its reference time below.
CALIBRATION = ("import numpy as np\n"
               "rng = np.random.default_rng(0)\n"
               "bits = np.zeros((32, 81), np.uint8)\n"
               "wide = np.zeros((8192, 81), np.uint8)\n"
               "s = 0\n"
               "for i in range(300_000):\n"
               "    s += i\n"
               "for _ in range(1500):\n"
               "    bits ^= (rng.random(bits.shape) < 0.1).astype(np.uint8)\n"
               "    s += int(bits.sum())\n"
               "for _ in range(20):\n"
               "    wide ^= (rng.random(wide.shape) < 0.1).astype(np.uint8)\n"
               "    s += int(wide.sum())\n")
CALIBRATION_REF_S = 0.375  # its median on a 2-vCPU Xeon KVM guest
CLI_PAIRS = 3  # traced run: CLI child / in-process replay alternations
CHILD_TIMEOUT_S = 60
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORK_NAMES = {"rows": "rows_per_s", "register-phases": "phases_per_s",
              "trials": "trials_per_s"}


# --- child processes ----------------------------------------------------------


@dataclass(frozen=True)
class Child:
    """One finished child process."""

    rc: int
    wall: float     # s, spawn to reap
    cpu: float      # s, user + sys
    rss_mb: float   # peak resident set
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: list[str], env: dict) -> Child:
    """Run ``python <args>`` and reap it with wait4, so its CPU time and peak
    RSS are its own rather than a running maximum over all children."""
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        # reaped here, so Popen must not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                     ru.ru_maxrss / 1024.0, out.read(), err.read())


def run_cli(cmd, seed: int, env: dict, m, oracle) -> tuple[Child, list[str]]:
    """Run one CLI command and check its artifact; returns the problems."""
    argv = cmd.argv(seed)
    child = run_child(["-m", "majmux.cli", *argv], env)
    if child.rc != 0:
        return child, [f"exit code {child.rc}: "
                       + child.stderr.decode(errors="replace")[-300:]]
    try:
        config, records = m.cli.parse_table(child.stdout.decode())
    except (ValueError, KeyError, IndexError, TypeError) as err:
        return child, [f"artifact does not parse: {err}"]
    if config.command != argv[0] or config.seed != seed:
        return child, [f"header says {config.command} seed {config.seed}"]
    return child, cmd.check(records, oracle)


def warm_up(env: dict) -> str:
    """Untimed: compile .pyc files, and return the majmux module imported."""
    run_child(["-m", "majmux.cli", "threshold", "--model", "level2"], env)
    probe = run_child(["-c", "import sys, majmux; "
                       "sys.stdout.write(majmux.__file__)"], env)
    return probe.stdout.decode()


# --- reporting ----------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(m, loadavg: tuple, imported: str) -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": git_commit(),
            "majmux_imported_by_children": imported,
            "majmux_imported_by_harness": m.__file__,
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "loadavg_at_start": list(loadavg)}


def emit(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")


# --- the two kinds of run -------------------------------------------------------


def run_e2e(m, wl, seed: int, seconds: float, spec: dict) -> dict:
    from workloads import Oracle
    env = child_env()
    oracle = Oracle(m)
    cmds = wl.commands(seed)
    imported = warm_up(env)
    setups, calibration = [], []
    # per command: one (wall_s, cpu_s, peak_rss_mb) sample per repetition
    per_cmd = [[] for _ in cmds]
    problems, digests = [], {}
    attempted = failed = 0
    t0 = time.perf_counter()
    # stop before a repetition that would end past the time budget
    while not per_cmd[-1] or (time.perf_counter() - t0) * (
            1 + 1 / len(per_cmd[-1])) <= seconds:
        # one set-up and one calibration sample per repetition, spread over
        # the run like the commands, so they see the same fast and slow spells
        calibration.append(run_child(["-c", CALIBRATION], env).wall)
        setups.append(run_child(["-c", "import majmux"], env).wall)
        for cmd, samples in zip(cmds, per_cmd):
            child, bad = run_cli(cmd, seed, env, m, oracle)
            attempted += 1
            if bad:
                failed += 1
                problems += [f"{' '.join(cmd.argv(seed))}: {b}" for b in bad]
            samples.append((child.wall, child.cpu, child.rss_mb))
            digests.setdefault(" ".join(cmd.argv(seed)),
                               hashlib.sha256(child.stdout).hexdigest())
    reps = len(per_cmd[0])
    # Per repetition: the sequence's wall and CPU time, and the set-up time.
    # Each is scaled by that repetition's calibration sample, taken seconds
    # before, so a slow spell of the machine slows both; then the median
    # over repetitions is reported.
    per_rep = {"wall_s": [sum(s[r][0] for s in per_cmd) for r in range(reps)],
               "cpu_s": [sum(s[r][1] for s in per_cmd) for r in range(reps)],
               "setup_s": setups}
    scales = [CALIBRATION_REF_S / c for c in calibration]
    raw = {k: statistics.median(v) for k, v in per_rep.items()}
    values = {k: statistics.median(x * f for x, f in zip(v, scales))
              for k, v in per_rep.items()}
    values["peak_rss_mb"] = max(statistics.median(r for _, _, r in s)
                                for s in per_cmd)
    values["work_per_s"] = sum(c.work for c in cmds) / values["wall_s"]
    raw["work_per_s"] = sum(c.work for c in cmds) / raw["wall_s"]

    print(f"workload {wl.name}, seed {seed}: {reps} repetitions of "
          f"{len(cmds)} commands in {time.perf_counter() - t0:.1f} s "
          f"(closed loop, one CLI child at a time, --workers 1)")
    print(f"  calibration task: median {statistics.median(calibration):.6g} s "
          f"of {len(calibration)}; each repetition's timings are scaled by "
          f"{CALIBRATION_REF_S} s / its calibration time")
    metrics = {}
    for name, unit in spec.items():
        metrics[name] = {"value": values[name], "unit": unit}
        label = (f"{name} ({WORK_NAMES[wl.work_name]})"
                 if name == "work_per_s" else name)
        emit(label, values[name], unit,
             f"as measured {raw[name]:.6g}" if name in raw else "")
    emit("fail_ratio", failed / attempted, "",
         f"{failed} of {attempted} commands")
    for argv, digest in digests.items():
        print(f"  sha256 {digest}  majmux {argv}")
    for p in problems[:20]:
        print(f"  FAILED {p}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "imported": imported,
            "detail": {"per_command": per_cmd, "setup_s": setups,
                       "calibration_s": calibration, "as_measured": raw,
                       "sha256": digests,
                       "problems": problems}}


def run_traced(m, wl, seed: int, spec: dict, run_id: str) -> dict:
    import layers
    from spans import Tracer
    from workloads import Oracle
    env = child_env()
    oracle = Oracle(m)
    imported = warm_up(env)
    tr = Tracer(run_id)
    attempted = failed = 0
    problems = []

    with tr.span("layers"):
        values = layers.measure(m, tr, seed)

    # Each command runs as a CLI child and is then replayed in-process, in
    # alternation; the difference is what the CLI adds around the public
    # calls (interpreter start, parsing, rendering).
    cmds = wl.commands(seed)
    overhead = [[] for _ in cmds]
    first = len(tr.spans)
    for _ in range(CLI_PAIRS):
        for cmd, diffs in zip(cmds, overhead):
            child, bad = run_cli(cmd, seed, env, m, oracle)
            attempted += 1
            if bad:
                failed += 1
                problems += [f"{' '.join(cmd.argv(seed))}: {b}" for b in bad]
            root = layers.replay(m, tr, cmd, seed)
            diffs.append(child.wall - sum(tr.duration(c)
                                          for c in tr.children(root)))
    replayed = tr.spans[first:]
    values["cli.overhead_s"] = sum(statistics.median(d) for d in overhead)
    # A replay lasts seconds and varies by ~10 % between passes, which hides
    # a sub-millisecond tracing cost; time the spans on no-op calls instead.
    per_span = layers.span_cost(run_id)
    values["trace.overhead_s"] = per_span * len(replayed) / CLI_PAIRS
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.json"
    tr.dump(spans_path)

    print(f"workload {wl.name}, seed {seed}: traced run {run_id}, "
          f"{len(tr.spans)} spans -> {spans_path.relative_to(ROOT)}")
    print(f"  self time by span over {CLI_PAIRS} replays (s):")
    selfs: dict[str, float] = {}
    for s in replayed:
        key = "cli <command glue>" if s["parent"] is None else s["name"]
        selfs[key] = selfs.get(key, 0.0) + tr.self_time(s)
    for name, secs in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"    {secs:10.6f}  {name}")
    print(f"  {len(replayed) // CLI_PAIRS} spans per replay at "
          f"{1e6 * per_span:.3g} us each")
    metrics = {}
    for name, unit in spec.items():
        if name not in values:
            raise KeyError(f"per-layer metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": unit}
        emit(name, values[name], unit)
    for p in problems[:20]:
        print(f"  FAILED {p}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "imported": imported,
            "detail": {"spans": str(spans_path.relative_to(ROOT)),
                       "cli_overhead_s_per_command": overhead,
                       "span_cost_s": per_span, "problems": problems}}


# --- entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    loadavg = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "majmux" / "__init__.py").is_file():
        print(f"error: no majmux package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import majmux
    import majmux.cli
    tree = (SRC / "majmux").resolve()
    if Path(majmux.__file__).resolve().parent != tree:
        print(f"error: imported {majmux.__file__}, not the tree under test",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    spec = {e["name"]: e["unit"] for e in bench[group]}
    OUT.mkdir(exist_ok=True)

    results = {}
    for name in names:
        wl = WORKLOADS[name]
        run_id = f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        res = (run_traced(majmux, wl, args.seed, spec, run_id) if args.trace
               else run_e2e(majmux, wl, args.seed, args.seconds, spec))
        if Path(res["imported"]).resolve().parent != tree:
            # every command measured some other tree
            res["correct"] = False
            res["failed"] = res["attempted"]
            print(f"  FAILED children imported {res['imported']}")
        res["provenance"] = provenance(majmux, loadavg, res.pop("imported"))
        print("  provenance " + json.dumps(res["provenance"], sort_keys=True))
        (OUT / f"result-{run_id}.json").write_text(
            json.dumps(res, indent=1, sort_keys=True) + "\n")
        results[name] = res

    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        res = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
