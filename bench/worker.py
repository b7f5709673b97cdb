"""One benchmark worker: a fresh interpreter that runs part of a workload.

Usage: python bench/worker.py '<json config>'.  run.py starts it with the
checkout's src/ on PYTHONPATH and a fixed PYTHONHASHSEED.  The worker prints
one JSON object as the last line of its standard output; `ready` is the
time.perf_counter() value just before its first timed operation, which the
parent compares with its own clock (both read CLOCK_MONOTONIC) to get set-up
time.  Modes:

  setup     import genusforge.cli and build the workload's inputs, then exit
  step      one (law, order) step of the budgeted ladder
  requests  the seeded block of CLI requests, `blocks` times, in-process,
            with host probes between requests (cpu.probe); no block starts
            once `cap_s` seconds have passed
  verify    one `verify` through cli.main, in-process (traced runs only)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cpu  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(cli, argv, stdin: str = "") -> "tuple[object, str, float]":
    """(exit code, stdout, seconds) of cli.main(argv); an exception becomes
    its name in place of the exit code."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed operation, not a failed run
        rc = f"raised {type(exc).__name__}"
    finally:
        dt = time.perf_counter() - t0
        sys.stdin = saved
    return rc, out.getvalue(), dt


# A host probe is taken before a block's first request and again after the
# first request that brings the request time since the last probe to this.
PROBE_EVERY_S = 0.5


def timed_block(cli, block) -> "list[tuple[object, str, float, float]]":
    """Run every request of block once: (exit code, stdout, seconds, probe
    seconds) each, where the probe seconds are the mean of the host probes
    taken just before and just after the stretch that holds the request."""
    probes = [cpu.probe()]
    done, since = [], 0.0
    for req in block:
        rc, out, dt = run_cli(cli, req.argv, req.stdin)
        done.append((rc, out, dt, len(probes) - 1))
        since += dt
        if since >= PROBE_EVERY_S:
            probes.append(cpu.probe())
            since = 0.0
    if since:
        probes.append(cpu.probe())
    return [(rc, out, dt, (probes[i] + probes[i + 1]) / 2) for rc, out, dt, i in done]


def ladder_step(fgl, law: str, order: int):
    """Build one catalog law and check its axioms; returns (seconds, law, report)."""
    t0 = time.perf_counter()
    built = fgl.catalog(law, order)
    report = fgl.check_axioms(built)
    return time.perf_counter() - t0, built, report


def step_digest(built, report) -> str:
    return workloads.digest({"law": built.to_obj(), "axioms": report.to_obj()})


def cpn_mismatches(requests, outputs) -> "list[str]":
    """Keys of CP^n Chern requests whose answer differs from genus(CP^n)
    computed by the product route genus_cpn.  Later rounds repeat the same
    requests and are checked by their digests."""
    from genusforge import genus

    bad, seen = [], set()
    for req, (rc, out) in zip(requests, outputs):
        if req.cpn is None or req.key in seen:
            continue
        seen.add(req.key)
        name, presentation, n = req.cpn
        want = genus.genus_cpn(genus.genus_series(name, max(n, 2), presentation), n).to_obj()
        try:
            got = json.loads(out)["value"]
        except (ValueError, KeyError, TypeError):
            got = None
        if got != want:
            bad.append(req.key)
    return bad


def main(config: dict) -> dict:
    from genusforge import cli, fgl

    mode, workload = config["mode"], config["workload"]
    block = None
    if workload == "cli_requests":
        block = workloads.request_block(config["seed"])
    tracer = Tracer() if config.get("trace") else None
    ready = time.perf_counter()
    result: dict = {"ready": ready}
    if tracer is not None:
        tracer.install()

    if mode == "step":
        dt, built, report = ladder_step(fgl, config["law"], config["order"])
        result["step"] = [dt, report.passed, step_digest(built, report)]
    elif mode == "requests":
        done = []
        for _ in range(config["blocks"]):
            if done and time.perf_counter() - ready > config.get("cap_s", float("inf")):
                break
            cpu.pin_fastest(config["cpus"])
            done.append(timed_block(cli, block))
        if tracer is not None:
            tracer.uninstall()
        result["rounds"] = [
            [[req.key, dt, rc, _sha(out), probe] for req, (rc, out, dt, probe) in zip(block, outs)]
            for outs in done
        ]
        result["cpn_mismatches"] = cpn_mismatches(block, [(rc, out) for rc, out, _, _ in done[0]])
    elif mode == "verify":
        rc, out, dt = run_cli(cli, workloads.VERIFY_ARGV)
        if tracer is not None:
            tracer.uninstall()
        result["verify"] = [rc, _sha(out), dt]
    elif mode != "setup":
        raise ValueError(f"unknown worker mode {mode!r}")

    if tracer is not None:
        result["layers"] = tracer.metrics()
        spans_path = config.get("spans_path")
        if spans_path:
            Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
            with open(spans_path, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    return result


if __name__ == "__main__":
    outcome = main(json.loads(sys.argv[1]))
    sys.__stdout__.write(json.dumps(outcome) + "\n")
