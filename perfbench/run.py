#!/usr/bin/env python3
"""qpc benchmark: seeded workloads through the real `qpc` CLI.

    python3 perfbench/run.py --workload hgp_large --seed 1 --seconds 30 --trace 0

Run from the repository root.  Every command runs as `python -m qpc.cli`
in a fresh process with PYTHONPATH=src: a closed loop with one client,
repeating the workload's command sequence until --seconds have passed.
Every output is checked against references the benchmark computes itself
(see workloads.py).

--trace 0 reports the end-to-end metrics, timed untraced and scaled to a
fixed machine speed with calibrate().  --trace 1 runs
the sequence once untraced for per-command end-to-end times, then replays
it in-process with a span around every call into a qpc layer (see
tracing.py) and reports the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Details
(environment, per-command times, spans) go to perfbench/_runs/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

SETUP_MIN_REPEATS = 5       # set-up is timed at least this many times ...
SETUP_MIN_TOTAL_S = 1.0     # ... and until this much set-up time has passed,
SETUP_MAX_REPEATS = 200     # ... but no more often than this
SETUP_CAL_EVERY_S = 0.1     # set-up time between two calibrate() readings
CALIBRATIONS = 5            # calibrate() readings at the start of a run
CAL_REF_S = 0.060           # calibrate() on the reference host when it runs at full speed
STARTUP_REPEATS = 3         # `qpc --help` runs behind cli.startup_s
HARD_LIMIT_S = 170          # a command still running at this point of the run is killed

E2E_METRICS = {             # name -> unit, for --trace 0
    "setup_s": "s",
    "wall_s": "s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
}
KINDS = ("construct", "analyze", "verify", "layout")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class CommandRun:
    command: workloads.Command
    outcome: workloads.Outcome
    seconds: float
    rss_mb: float
    problems: list[str]
    cal_s: float = 0.0          # calibrate() just before the command


_rng = np.random.default_rng(12345)
_GRAY_ROWS = [int(x) for x in _rng.integers(0, 1 << 62, 17)]
_GRID = _rng.integers(0, 2, (300, 400)).tolist()
_WORDS = _rng.integers(0, 1 << 63, (384, 6), dtype=np.uint64)


def calibrate() -> float:
    """Seconds for a fixed mix of the work qpc does, none of it qpc's code.

    A Gray-code XOR/popcount walk on Python ints, text formatting of a 0/1
    grid and a numpy GF(2) elimination on packed words.  It runs at the
    start, between set-ups and before every command; end-to-end times are
    scaled by CAL_REF_S over its mean (see end_to_end and README.md).
    """
    t0 = time.perf_counter()
    cur, best = 0, 64
    for step in range(1, 1 << 17):
        cur ^= _GRAY_ROWS[(step & -step).bit_length() - 1]
        best = min(best, cur.bit_count())
    _ = "\n".join(" ".join(str(v) for v in row) for row in _GRID)
    a, pivot = _WORDS.copy(), 0
    for c in range(a.shape[1] * 64):
        word, bit = c >> 6, np.uint64(c & 63)
        hits = np.nonzero((a[pivot:, word] >> bit) & np.uint64(1))[0]
        if hits.size:
            p = pivot + int(hits[0])
            a[[pivot, p]] = a[[p, pivot]]
            others = np.nonzero((a[:, word] >> bit) & np.uint64(1))[0]
            a[others[others != pivot]] ^= a[pivot]
            pivot += 1
            if pivot == a.shape[0]:
                break
    return time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_qpc(args: list[str], logs: Path, started: float) -> tuple[workloads.Outcome, float, float]:
    """One fresh `python -m qpc.cli` process: outcome, wall seconds, peak RSS in MB."""
    out, err = logs / "stdout.txt", logs / "stderr.txt"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    argv = [sys.executable, "-m", "qpc.cli", *args]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(max(1, int(HARD_LIMIT_S - (time.perf_counter() - started))))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    return workloads.Outcome(code, out.read_text()), seconds, usage.ru_maxrss / 1024


def preflight(logs: Path, started: float) -> None:
    """The checkout must hold qpc's sources, and children must import them."""
    if not (SRC / "qpc" / "cli.py").is_file():
        raise BenchError(f"no qpc sources at {SRC}")
    outcome, _, _ = run_qpc(["--help"], logs, started)
    if outcome.exit_code != 0 or "construct" not in outcome.stdout:
        raise BenchError(f"`python -m qpc.cli --help` exited {outcome.exit_code}")
    probe = [sys.executable, "-c", "import qpc.cli; print(qpc.cli.__file__)"]
    pid = os.posix_spawn(sys.executable, probe, child_env(),
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, str(logs / "probe.txt"),
                                        os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)])
    os.waitpid(pid, 0)
    where = Path((logs / "probe.txt").read_text().strip() or ".").resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise BenchError(f"children import qpc from {where}, not from {SRC}")


def run_sequence(plan: workloads.Plan, logs: Path, started: float) -> list[CommandRun]:
    runs = []
    for command in plan.commands:
        cal = calibrate()
        outcome, seconds, rss = run_qpc(command.args, logs, started)
        runs.append(CommandRun(command, outcome, seconds, rss, command.check(outcome), cal))
    return runs


def self_check(plan: workloads.Plan, runs: list[CommandRun], seed: int) -> int:
    """Every corruption must make its command's checker report a problem."""
    rng = np.random.default_rng(seed)
    for c in plan.corruptions:
        if not workloads.corrupt(plan, c, runs[c.index].outcome, rng):
            raise BenchError(f"self-check: the checker accepted a {c.label}"
                             f" on command {c.index}")
    return len(plan.corruptions)


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "calibration_s": [calibrate() for _ in range(CALIBRATIONS)],
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(name: str, seed: int, work: Path):
    """Generate inputs and references repeatedly (see SETUP_*); keep the last plan.

    calibrate() runs before the first set-up and after every further
    SETUP_CAL_EVERY_S of set-up time, so set-up gets its own speed reading.
    """
    times: list[float] = []
    cals = [calibrate()]
    since_cal = 0.0
    while len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_TOTAL_S):
        shutil.rmtree(work / "inputs", ignore_errors=True)
        t0 = time.perf_counter()
        plan = workloads.build(name, seed, work / "inputs")
        times.append(time.perf_counter() - t0)
        since_cal += times[-1]
        if since_cal >= SETUP_CAL_EVERY_S:
            cals.append(calibrate())
            since_cal = 0.0
    return plan, times, cals


def kind_totals(runs: list[CommandRun]) -> dict[str, float]:
    return {kind: sum(r.seconds for r in runs if r.command.kind == kind) for kind in KINDS}


def measure(plan, logs, seconds, started):
    """--trace 0: repeat the sequence until `seconds` have passed."""
    sequences = []
    t0 = time.perf_counter()
    while not sequences or time.perf_counter() - t0 < seconds:
        sequences.append(run_sequence(plan, logs, started))
        if time.perf_counter() - started > HARD_LIMIT_S - 30:
            break
    return sequences, time.perf_counter() - t0


def end_to_end(sequences, start_cals, setup_times, setup_cals) -> tuple[dict, dict]:
    """Speed-normalised times, peak RSS, and the raw figures behind them.

    Per sequence, the command times are summed; a run reports the mean over
    its sequences times CAL_REF_S / (mean calibrate() time over the run).
    The host alternates between a fast and a slow state, so both means grow
    linearly with the share of time spent slow and their ratio cancels it.
    Set-up is scaled by the readings taken between set-ups.
    """
    runs = [r for seq in sequences for r in seq]
    cals = start_cals + [r.cal_s for r in runs]
    scale = CAL_REF_S / statistics.mean(cals)
    totals = [kind_totals(seq) for seq in sequences]
    walls = [sum(r.seconds for r in seq) for seq in sequences]
    metrics = {
        "setup_s": statistics.mean(setup_times) * CAL_REF_S / statistics.mean(setup_cals),
        "wall_s": statistics.mean(walls) * scale,
        "analyze_s": statistics.mean(t["analyze"] for t in totals) * scale,
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in seq) for seq in sequences),
    }
    extra = {f"{kind}_s": statistics.mean(t[kind] for t in totals) * scale for kind in KINDS
             if any(r.command.kind == kind for r in runs)}
    extra["raw_wall_s"] = statistics.mean(walls)
    extra["raw_setup_s"] = statistics.mean(setup_times)
    extra["calibration_s"] = statistics.mean(cals)
    extra["failed_frac"] = sum(bool(r.problems) for r in runs) / len(runs)
    decides = [r for r in runs if r.command.decides]
    if decides:
        extra["decided_frac"] = sum(not r.problems for r in decides) / len(decides)
    return metrics, extra


def traced(plan, logs, seconds, started):
    """--trace 1: untraced subprocess pass, then traced in-process replays."""
    import tracing

    startup = statistics.median(run_qpc(["--help"], logs, started)[1]
                                for _ in range(STARTUP_REPEATS))
    untraced = run_sequence(plan, logs, started)
    e2e = [r.seconds for r in untraced]
    cli = tracing.load_qpc(SRC)
    replays, commands, spans, outcomes = [], [], [], []
    t0 = time.perf_counter()
    while not replays or time.perf_counter() - t0 < seconds:
        tracer, outs = tracing.replay(cli, plan)
        metrics, per_command = tracing.summarize(tracer, e2e)
        replays.append(metrics)
        commands.append(per_command)
        spans.append(tracer.spans)
        outcomes.extend(zip(plan.commands, outs))
        if time.perf_counter() - started > HARD_LIMIT_S - 30:
            break
    metrics = tracing.median_metrics(replays)
    metrics["cli.startup_s"] = startup
    checked = [CommandRun(c, o, 0.0, 0.0, c.check(o)) for c, o in outcomes]
    detail = {"startup_s": startup, "commands": commands, "spans": spans,
              "units": {k: u for k, (u, _) in tracing.METRICS.items()}}
    return untraced, checked, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    env = environment(args.seed)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = RUNS / "work" / tag
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    try:
        preflight(logs, started)
        plan, setup_times, setup_cals = set_up(args.workload, args.seed, work)
        if args.trace:
            first, checked, metrics, detail = traced(plan, logs, args.seconds, started)
            runs = first + checked
            units = detail.pop("units")
        else:
            sequences, elapsed = measure(plan, logs, args.seconds, started)
            first = sequences[0]
            runs = [r for seq in sequences for r in seq]
            metrics, extra = end_to_end(sequences, env["calibration_s"], setup_times, setup_cals)
            units = E2E_METRICS
            detail = {"elapsed_s": elapsed, "extra": extra,
                      "cal_s": [[r.cal_s for r in seq] for seq in sequences],
                      "sequences": [[r.seconds for r in seq] for seq in sequences],
                      "rss_mb": [[r.rss_mb for r in seq] for seq in sequences]}
        rejected = self_check(plan, first, args.seed)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in runs if r.problems]
    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(runs)} commands, {len(failed)} failed; self-check rejected "
          f"{rejected} corrupted outputs")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {units[name]}")
    if not args.trace:
        print(f"  ({len(sequences)} sequences in {detail['elapsed_s']:.1f} s, means over"
              f" sequences; setup_s a mean over {len(setup_times)} set-ups; times scaled"
              f" to calibrate() = {CAL_REF_S} s)")
        for name, value in detail["extra"].items():
            print(f"  {name:32s} {value:>14.6g} {'frac' if 'frac' in name else 's'}")
    else:
        print(f"  per command (first replay): e2e_s, traced_s, explained share, top self times")
        for cmd, c in zip(plan.commands, detail["commands"][0]):
            top = ", ".join(f"{k} {v:.3f}" for k, v in c["self_s"].items())
            print(f"  {cmd.kind:9s} {c['e2e_s']:7.3f} {c['traced_s']:7.3f}"
                  f" {c['explained_share']:6.1%}  {top}")
    for r in failed[:5]:
        print(f"FAILED {' '.join(r.command.args[:2])}: {'; '.join(r.problems[:3])}",
              file=sys.stderr)

    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(
        {"env": env, "workload": args.workload, "trace": args.trace,
         "setup_s": setup_times, "setup_cal_s": setup_cals, "metrics": metrics, "detail": detail,
         "failed": [{"args": r.command.args, "problems": r.problems} for r in failed]},
        indent=1) + "\n")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
