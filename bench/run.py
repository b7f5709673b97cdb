"""The genusforge benchmark: one workload per invocation, every output checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify_all|cli_requests \
        --seed N --seconds S --trace 0|1

Each run is a single client in a closed loop: the next operation starts when
the previous one has ended, and no two worker processes run at once.  Workers
are fresh interpreters with src/ on PYTHONPATH, PYTHONHASHSEED fixed and
every GENUSFORGE_* variable removed.  Before each round the run moves itself,
and so the workers it starts, to the CPU that is fastest at that moment
(cpu.py).  A run does round(S / nominal round time) rounds
(workloads.NOMINAL_ROUND_S), so at the seed commit it measures about S
seconds and its sample count does not depend on the machine's speed.  Every
round repeats the same operations; timings are medians over the rounds.

Every timed interval is bracketed by host probes (cpu.probe) and rescaled to
the probe's nominal speed (cpu.scaled), because the shared host's own speed
moves by half within a minute.  The raw times are printed beside them.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run.  The lines before it say the same in words.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import cpu  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import METRICS  # noqa: E402

ROOT = BENCH.parent
REFERENCES = BENCH / "references.json"
OUT_DIR = ROOT / ".bench_out"
HASH_SEED = "0"
SETUP_SAMPLES = 16
TRACE_PAIRS = 3
RUN_LIMIT_S = 170.0
# A run starts no further round once its rounds have taken this many times
# --seconds, so that a slow host shortens a run instead of stretching it.
ROUND_TIME_CAP = 1.5
# A budgeted step is judged by its rescaled time, and killed once its raw time
# passes this many budgets, plus an allowance to start an interpreter.
STEP_KILL_BUDGETS = 2.0
STARTUP_ALLOWANCE_S = 2.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)
PER_LAYER = METRICS + (("fgl.gamma_raw_max_order", "order"), ("bench.trace_overhead_ratio", "ratio"))


class RunAborted(RuntimeError):
    """The run cannot produce a result: the program is missing or the run
    outgrew its time limit."""


class Child:
    """A finished child process."""

    def __init__(self, rc, stdout: bytes, stderr: bytes, start: float, wall: float, rss_mb: float):
        self.rc, self.stdout, self.stderr = rc, stdout, stderr
        self.start, self.wall, self.rss_mb = start, wall, rss_mb


def child_env() -> "dict[str, str]":
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("PYTHON") and not k.startswith("GENUSFORGE_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_child(argv, timeout: float) -> Child:
    """Run argv to completion (or kill it at timeout) and reap it with wait4,
    which gives its own peak resident memory."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    streams = {}
    readers = [
        threading.Thread(target=lambda k, f: streams.__setitem__(k, f.read()), args=(k, f))
        for k, f in (("out", proc.stdout), ("err", proc.stderr))
    ]
    for r in readers:
        r.start()
    killer = threading.Timer(max(timeout, 0.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, streams["out"], streams["err"], start, wall, usage.ru_maxrss / 1024)


class Run:
    """State of one benchmark run: its deadline and its failure tally."""

    def __init__(self, workload: str, seed: int, seconds: float, references: dict):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.round_cap_s = ROUND_TIME_CAP * seconds
        self.refs = references
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failures: "list[str]" = []
        self.setups: "list[float]" = []
        self.cpus = cpu.allowed()
        self.probes: "list[float]" = []

    def pin(self) -> None:
        """Move this process (and the children it starts) to the fastest CPU."""
        cpu.pin_fastest(self.cpus)

    def probe(self) -> float:
        self.probes.append(cpu.probe())
        return self.probes[-1]

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise RunAborted(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left

    def worker(self, config: dict, timeout: "float | None" = None) -> "tuple[Child, dict | None]":
        config = {"workload": self.workload, "seed": self.seed, "cpus": self.cpus, **config}
        argv = [sys.executable, "-s", str(BENCH / "worker.py"), json.dumps(config)]
        child = run_child(argv, min(timeout or RUN_LIMIT_S, self.remaining()))
        result = None
        if child.rc == 0 and child.stdout.strip():
            result = json.loads(child.stdout.decode().strip().splitlines()[-1])
        return child, result

    def worker_ok(self, config: dict) -> "tuple[Child, dict | None]":
        """A worker whose crash counts as one failed operation."""
        child, result = self.worker(config)
        if result is None:
            tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.check(False, f"{config['mode']} worker exit {child.rc}: {' '.join(tail)}")
        return child, result


# -- set-up ---------------------------------------------------------------------


def take_setup(run: Run, rounds: int, record: bool = True) -> None:
    """Start one set-up worker; its time from spawn to ready, rescaled by
    the host probes around it, is one sample.  The unrecorded first start
    compiles bytecode and proves that the program imports from src/."""
    before = run.probe() if record else 0.0
    child, result = run.worker({"mode": "setup", "blocks": rounds})
    if result is None:
        message = child.stderr.decode(errors="replace").strip()
        raise RunAborted(f"cannot start genusforge from {ROOT / 'src'}: {message[-500:]}")
    if record:
        probe_s = (before + run.probe()) / 2
        run.setups.append(cpu.scaled(result["ready"] - child.start, probe_s))


# -- workloads ------------------------------------------------------------------
#
# Each function runs the rounds of one workload and returns
# {"rounds": [[rescaled seconds of each operation] per round],
#  "raw": [raw seconds of each round], "rss_mb": [...]}.
# Every round repeats the same operations.


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verify_rounds(run: Run, rounds: int) -> dict:
    want = run.refs["verify"][workloads.digest(list(workloads.VERIFY_ARGV))]
    done, raw, rss = [], [], []
    start = time.perf_counter()
    for _ in range(rounds):
        if done and time.perf_counter() - start > run.round_cap_s:
            break
        run.pin()
        take_setup(run, rounds)
        argv = [sys.executable, "-s", "-m", "genusforge.cli", *workloads.VERIFY_ARGV]
        before = run.probe()
        child = run_child(argv, run.remaining())
        probe_s = (before + run.probe()) / 2
        run.check(child.rc == 0 and _sha(child.stdout) == want, f"verify exit {child.rc}")
        done.append([cpu.scaled(child.wall, probe_s)])
        raw.append(child.wall)
        rss.append(child.rss_mb)
    return {"rounds": done, "raw": raw, "rss_mb": rss}


def check_requests(run: Run, result: dict) -> None:
    catalog = workloads.all_requests(workloads.request_catalog())
    bad_cpn = set(result["cpn_mismatches"])
    for block in result["rounds"]:
        for key, _, rc, sha, _ in block:
            ref = run.refs["requests"].get(key)
            ok = (
                ref is not None
                and ref[0] == catalog[key].input_digest()
                and ref[1] == rc
                and ref[2] == sha
                and key not in bad_cpn
            )
            run.check(ok, f"request {key} exit {rc}")


def request_rounds(run: Run, rounds: int) -> dict:
    child, result = run.worker_ok({"mode": "requests", "blocks": rounds, "cap_s": run.round_cap_s})
    if result is None:
        return {"rounds": [], "raw": [], "rss_mb": []}
    check_requests(run, result)
    run.probes.extend(r[4] for block in result["rounds"] for r in block)
    done = [[cpu.scaled(r[1], r[4]) for r in block] for block in result["rounds"]]
    raw = [sum(r[1] for r in block) for block in result["rounds"]]
    return {"rounds": done, "raw": raw, "rss_mb": [child.rss_mb]}


ROUNDS = {"verify_all": verify_rounds, "cli_requests": request_rounds}


def end_to_end(run: Run) -> "tuple[dict, list[str]]":
    rounds = workloads.rounds_for(run.workload, run.seconds)
    take_setup(run, rounds, record=False)
    # Half the set-up samples come before the workload, so that they do not
    # all fall into one stretch of the host's load.
    while len(run.setups) < SETUP_SAMPLES // 2:
        run.pin()
        take_setup(run, rounds)
    done = ROUNDS[run.workload](run, rounds)
    while len(run.setups) < SETUP_SAMPLES:
        run.pin()
        take_setup(run, rounds)
    ops = [t for done_round in done["rounds"] for t in done_round]
    if not ops:
        raise RunAborted("no operation completed")
    round_s = [sum(done_round) for done_round in done["rounds"]]
    tail, pct, beyond = stats.tail(ops)
    values = {
        "setup_s": stats.median(run.setups),
        "wall_s": stats.median(round_s),
        "peak_rss_mb": stats.median(done["rss_mb"]),
        "req_per_s": len(ops) / sum(round_s),
        "op_p50_ms": 1000 * stats.percentile(ops, 50.0),
        "op_tail_ms": 1000 * tail,
    }
    notes = [
        f"{len(round_s)} rounds, {len(ops)} operations, {len(run.setups)} set-up samples",
        f"op_tail_ms is the p{pct:g} latency: {beyond} of {len(ops)} samples lie beyond it",
        f"times rescaled to a {1000 * cpu.NOMINAL_PROBE_S:g}-ms host probe; the probe took a "
        f"median {1000 * stats.median(run.probes):.2f} ms (a slower probe means a busier host), "
        f"raw median round {stats.median(done['raw']):.4g} s",
    ]
    return values, notes


# -- traced run -----------------------------------------------------------------


def budgeted_ladder(run: Run) -> int:
    """Build LADDER_LAW at rising orders, one child per step, until a step
    overruns STEP_BUDGET_S in rescaled time; returns the last order that
    passed in time."""
    best = workloads.LADDER_START - 1
    for order in range(workloads.LADDER_START, workloads.LADDER_MAX_ORDER + 1):
        config = {"mode": "step", "law": workloads.LADDER_LAW, "order": order}
        run.pin()
        before = run.probe()
        limit = STEP_KILL_BUDGETS * workloads.STEP_BUDGET_S + STARTUP_ALLOWANCE_S
        child, result = run.worker(config, timeout=limit)
        if result is None:
            break
        dt, passed, dig = result["step"]
        if cpu.scaled(dt, (before + run.probe()) / 2) > workloads.STEP_BUDGET_S:
            break
        ref = run.refs["steps"].get(workloads.step_key(workloads.LADDER_LAW, order))
        ok = passed and ref in (None, dig)
        run.check(ok, f"budgeted step {workloads.LADDER_LAW}/{order}")
        if not ok:
            break
        best = order
    return best


def traced_round(run: Run, spans_path: str) -> "tuple[dict | None, float]":
    """One round in a fresh traced worker: its result and its timed seconds,
    rescaled like an untraced round."""
    config = {"mode": _TRACED_MODE[run.workload], "trace": True, "spans_path": spans_path, "blocks": 1}
    before = run.probe()
    child, result = run.worker_ok(config)
    probe_s = (before + run.probe()) / 2
    if result is None:
        return None, 0.0
    if run.workload == "verify_all":
        rc, sha, _ = result["verify"]
        want = run.refs["verify"][workloads.digest(list(workloads.VERIFY_ARGV))]
        run.check(rc == 0 and sha == want, f"traced verify exit {rc}")
        return result, cpu.scaled(child.wall, probe_s)
    check_requests(run, result)
    return result, sum(cpu.scaled(r[1], r[4]) for r in result["rounds"][0])


_TRACED_MODE = {"verify_all": "verify", "cli_requests": "requests"}


def traced(run: Run) -> "tuple[dict, list[str]]":
    """Per-layer metrics from a traced round in a fresh worker.  Tracing
    overhead is the median, over TRACE_PAIRS adjacent pairs, of traced over
    untraced round time; verify_all then runs the budgeted ladder."""
    spans_path = str(OUT_DIR / f"spans-{run.workload}-seed{run.seed}.jsonl")
    first, ratios = None, []
    for _ in range(TRACE_PAIRS):
        run.pin()
        result, traced_s = traced_round(run, spans_path)
        if result is None:
            raise RunAborted("traced worker failed")
        first = first or result
        base = ROUNDS[run.workload](run, 1)["rounds"]
        if base:
            ratios.append(traced_s / sum(base[0]))
    max_order = budgeted_ladder(run) if run.workload == "verify_all" else 0
    values = dict(first["layers"])
    values["fgl.gamma_raw_max_order"] = max_order
    values["bench.trace_overhead_ratio"] = stats.median(ratios) if ratios else 0.0
    notes = [
        "tracing overhead: median of traced / untraced round time over "
        f"{len(ratios)} adjacent pairs = {values['bench.trace_overhead_ratio']:.3f} "
        f"(pairs: {', '.join(f'{r:.3f}' for r in ratios)})",
        f"spans of the last traced round written to {Path(spans_path).relative_to(ROOT)}",
    ]
    if run.workload == "verify_all":
        notes.append(
            f"max_order: {workloads.LADDER_LAW} passed up to order {max_order} with each "
            f"step under {workloads.STEP_BUDGET_S:g} s"
        )
    return values, notes


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        references = json.loads(REFERENCES.read_text())
        run = Run(args.workload, args.seed, args.seconds, references)
        values, notes = traced(run) if args.trace else end_to_end(run)
    except (RunAborted, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark aborted: {exc}\n")
        return 2
    units = dict(PER_LAYER if args.trace else END_TO_END)
    failed = len(run.failures)
    print(f"workload {args.workload}, seed {args.seed}, PYTHONHASHSEED={HASH_SEED}")
    for line in notes:
        print(line)
    print(f"failed_frac = {failed}/{run.attempted} checked operations = {failed / run.attempted:.4f}")
    for what in run.failures[:20]:
        print(f"FAILED: {what}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
