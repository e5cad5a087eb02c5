#!/usr/bin/env python3
"""treelab benchmark: closed-loop CLI sessions with exact output checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  One client repeats the workload's
session until the sessions have taken S seconds; each command runs in a
fresh interpreter as `python -m treelab.cli ...` against this checkout's
src, with default global flags.  Every output is checked, and each
command's output must be byte-identical across the sessions of a run.

--trace 0 reports the end-to-end metrics, all medians over the run:
  setup_s      wall time of a cold `treelab --version`, sampled between
               sessions (interpreter start, package import and region's
               import-time catalog check)
  wall_s       session wall time, first spawn to last exit: the user's
               time to solution
  work_per_s   checks_per_s on verify-corpus (checks reported / session
               wall), windows_per_s on profile-dense and glue-host (the
               profile command's total / that command's wall time)
  peak_rss_mb  the largest ru_maxrss of any command in a session, read
               from wait4
fail_ratio (failed / attempted commands) is printed beside them and
carried by the result's "failed" and "attempted".  Each command's CPU
time, also from wait4, is recorded beside its wall time.

--trace 1 runs the same sessions in-process instead, alternating an
untraced and a traced session, each in its own interpreter, and reports
per-layer self times and work counts (see spans.py) as medians over the
traced sessions, plus trace.overhead_s, the traced minus the untraced
median session wall.

Output: a summary table, one JSON line with every session's and command's
wall time, CPU time and RSS plus the environment, and last the result object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when
every check passed, 1 when one failed, and 2 when the program cannot be
found or run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PER_SESSION = 2
SETUP_MIN = 15
RUN_BUDGET_S = 170.0


def child_env() -> dict:
    """The environment of a user running the CLI from this checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TREELAB_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Proc:
    wall_s: float
    cpu_s: float | None
    rss_mb: float | None
    code: int


class Runner:
    """Spawns processes, each waited for with wait4, within the run's time budget."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def spawn(self, argv: list[str], stdout: Path) -> Proc:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run budget exhausted")
        with open(stdout, "wb") as out, open(self.work / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode)

    def treelab(self, args: list[str], stdout: Path) -> Proc:
        return self.spawn([sys.executable, "-m", "treelab.cli", *args], stdout)


@dataclass
class Session:
    wall_s: float
    commands: list[dict] = field(default_factory=list)
    trace: dict | None = None

    @property
    def failed(self) -> int:
        return sum(1 for c in self.commands if c["failures"])


class OutputChecker:
    """Applies each command's check and compares outputs across sessions."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.first: dict[int, str] = {}

    def check(self, index: int, code: int, stdout: Path) -> tuple[list[str], int]:
        command = self.workload.commands[index]
        failures = [] if code == 0 else [f"exit code {code}"]
        data = stdout.read_bytes()
        items = 0
        try:
            found, items = command.check(data)
            failures += found
        except (ValueError, KeyError, TypeError, AttributeError, OSError) as e:
            failures.append(f"output check raised {type(e).__name__}: {e}")
        digest = hashlib.sha256(data)
        if command.out is not None and command.out.exists():
            digest.update(command.out.read_bytes())
        if self.first.setdefault(index, digest.hexdigest()) != digest.hexdigest():
            failures.append("output differs from the run's first session")
        return failures, items


def command_record(command, proc: Proc, failures: list[str], items: int,
                   output_bytes: int) -> dict:
    return {"name": command.name, "wall_s": proc.wall_s, "cpu_s": proc.cpu_s,
            "rss_mb": proc.rss_mb, "code": proc.code, "items": items,
            "output_bytes": output_bytes, "failures": failures}


def output_size(command, stdout: Path) -> int:
    size = stdout.stat().st_size
    if command.out is not None and command.out.exists():
        size += command.out.stat().st_size
    return size


def run_cli_session(runner: Runner, workload: Workload, checker: OutputChecker) -> Session:
    procs = []
    start = time.perf_counter()
    for i, command in enumerate(workload.commands):
        procs.append(runner.treelab(command.argv, runner.work / f"stdout-{i}.txt"))
    session = Session(time.perf_counter() - start)
    for i, (command, proc) in enumerate(zip(workload.commands, procs)):
        stdout = runner.work / f"stdout-{i}.txt"
        failures, items = checker.check(i, proc.code, stdout)
        session.commands.append(command_record(
            command, proc, failures, items, output_size(command, stdout)))
    return session


def run_inproc_session(runner: Runner, workload: Workload, checker: OutputChecker,
                       traced: bool) -> Session:
    result_path = runner.work / "inproc-result.json"
    spec = {
        "src": str(SRC),
        "trace": traced,
        "result": str(result_path),
        "commands": [{"argv": c.argv, "stdout": str(runner.work / f"stdout-{i}.txt")}
                     for i, c in enumerate(workload.commands)],
    }
    spec_path = runner.work / "inproc-spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = runner.spawn([sys.executable, str(HERE / "inproc.py"), str(spec_path)],
                        runner.work / "inproc-stdout.txt")
    if proc.code != 0:
        raise RuntimeError(f"in-process session exited with code {proc.code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    session = Session(result["session_wall_s"])
    output_bytes = 0
    for i, (command, wall, code) in enumerate(zip(workload.commands, result["walls_s"],
                                                  result["codes"])):
        stdout = runner.work / f"stdout-{i}.txt"
        failures, items = checker.check(i, code, stdout)
        size = output_size(command, stdout)
        output_bytes += size
        session.commands.append(command_record(
            command, Proc(wall, None, None, code), failures, items, size))
    if traced:
        session.trace = layer_metrics(result, session.wall_s, output_bytes)
    return session


def layer_metrics(result: dict, session_wall: float, output_bytes: int) -> dict:
    """Per-layer metrics of one traced session, with the calling-thread accounting.

    A layer's self_s is its wall self time on the calling thread plus its
    CPU self time on worker threads (see spans.py).
    """
    records = [tuple(s) for s in result["spans"]]
    calling_thread = result["calling_thread"]
    calling, workers = spans.layer_self_times(records, calling_thread)
    pool_s = spans.covered_by_workers(records, calling_thread)
    counts = result["counts"]
    metrics = {f"{layer}.self_s": calling[layer] + workers[layer] for layer in spans.LAYERS}
    for name in spans.COUNTS:
        metrics[name] = counts.get(name, 0)
    enumerate_s = metrics["counting.enumerate.self_s"]
    metrics["counting.windows_per_s"] = metrics["counting.windows"] / enumerate_s if enumerate_s else 0.0
    metrics["cli.output_bytes"] = output_bytes
    accounted = sum(calling.values()) + pool_s
    return {
        "metrics": metrics,
        "spans": len(records),
        "calling_thread_self_s": calling,
        "worker_threads_cpu_self_s": workers,
        "calling_thread_waiting_on_workers_s": pool_s,
        "session_wall_s": session_wall,
        "unattributed_s": session_wall - accounted,
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def tail(values: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it, as a diagnostic."""
    xs = sorted(values)
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            return {"p": p, "value": xs[rank - 1], "beyond": n - rank, "n": n}
    return {"p": None, "value": None, "beyond": 0, "n": n}


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values), "tail": tail(values)}


def environment(runner: Runner) -> dict:
    sha = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    probe = runner.work / "workers.txt"
    runner.spawn([sys.executable, "-c",
                  "from treelab.config import Config; print(Config().resolved_threads())"], probe)
    workers = probe.read_text().strip()
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "default_workers": int(workers) if workers.isdigit() else None,
            "platform": platform.platform()}


class SetupTimer:
    """Cold `treelab --version` runs, taken between sessions.

    Spreading the samples over the run lets the median see the same
    machine as the sessions do.
    """

    def __init__(self, runner: Runner, enabled: bool) -> None:
        self.runner = runner
        self.enabled = enabled
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.sample(warm_up=True)

    def sample(self, count: int = 1, warm_up: bool = False) -> None:
        out = self.runner.work / "version.txt"
        for _ in range(count if self.enabled else 0):
            proc = self.runner.treelab(["--version"], out)
            self.attempted += 1
            if proc.code != 0 or not out.read_bytes().startswith(b"treelab "):
                self.failed += 1
            if not warm_up:
                self.walls.append(proc.wall_s)
                self.cpus.append(proc.cpu_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treelab" / "cli.py").is_file():
        print(f"perfbench: no treelab sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, Runner(work))
    except (RuntimeError, TimeoutError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, runner: Runner) -> int:
    env = environment(runner)
    workload = WORKLOADS[args.workload](args.seed, runner.work)
    checker = OutputChecker(workload)
    setup = SetupTimer(runner, args.trace == 0)
    sessions: list[Session] = []
    untraced: list[Session] = []
    measured = 0.0
    while measured < args.seconds:
        setup.sample(SETUP_PER_SESSION)
        if args.trace:
            plain = run_inproc_session(runner, workload, checker, traced=False)
            untraced.append(plain)
            sessions.append(run_inproc_session(runner, workload, checker, traced=True))
            measured += plain.wall_s + sessions[-1].wall_s
        else:
            sessions.append(run_cli_session(runner, workload, checker))
            measured += sessions[-1].wall_s
    setup.sample(max(0, SETUP_MIN - len(setup.walls)))

    every = untraced + sessions
    attempted = setup.attempted + sum(len(s.commands) for s in every)
    failed = setup.failed + sum(s.failed for s in every)
    walls = [s.wall_s for s in sessions]
    key = workload.rate_command
    rates = [s.commands[key]["items"] / s.commands[key]["wall_s"] for s in sessions]
    if args.trace:
        names = list(sessions[0].trace["metrics"])
        metrics = {name: (statistics.median(s.trace["metrics"][name] for s in sessions),
                          unit_of(name)) for name in names}
        overhead = statistics.median(walls) - statistics.median(s.wall_s for s in untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        cpus = []
    else:
        cpus = [sum(c["cpu_s"] for c in s.commands) for s in sessions]
        peaks = [max(c["rss_mb"] for c in s.commands) for s in sessions]
        metrics = {
            "setup_s": (statistics.median(setup.walls), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "work_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
        }

    print(f"treelab benchmark: workload {workload.name}, seed {args.seed}, "
          f"{'traced in-process' if args.trace else 'fresh process per command'}, "
          f"{len(sessions)} sessions, nproc {env['nproc']}, "
          f"default workers {env['default_workers']}")
    for name, (value, unit) in metrics.items():
        alias = f" ({workload.rate_name})" if name == "work_per_s" else ""
        print(f"  {name + alias:<28} {value:.6g} {unit}")
    print(f"  {'fail_ratio':<28} {failed}/{attempted} = {failed / attempted:.6g} ratio")
    for s in sessions if args.trace else ():
        t = s.trace
        print(f"  calling thread: layer self times {sum(t['calling_thread_self_s'].values()):.6f} s"
              f" + waiting on worker threads {t['calling_thread_waiting_on_workers_s']:.6f} s"
              f" + outside any span {t['unattributed_s']:.6f} s = session wall {s.wall_s:.6f} s")
    for s in sessions:
        for c in s.commands:
            for f in c["failures"]:
                print(f"  FAILED {c['name']}: {f}")

    timings = {
        "setup_cpu_s": setup.cpus,
        "setup_wall_s": setup.walls,
        "wall_s": walls,
        "cpu_s": cpus,
        workload.rate_name: rates,
        **{f"{name}.wall_s": [c["wall_s"] for s in sessions for c in s.commands if c["name"] == name]
           for name in dict.fromkeys(c.name for c in workload.commands)},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "inputs": workload.inputs,
        "setup_cpu_s": setup.cpus,
        "setup_wall_s": setup.walls,
        "sessions": [{"wall_s": s.wall_s, "commands": s.commands, "trace": s.trace}
                     for s in sessions],
        "untraced_inproc_sessions": [{"wall_s": s.wall_s, "commands": s.commands}
                                     for s in untraced],
        "summary": {name: summary(values) for name, values in timings.items() if values},
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
