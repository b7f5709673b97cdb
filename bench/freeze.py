"""Regenerate bench/references.json from the program in src/.

Run it only on a commit whose outputs are the reference (the seed commit of
the benchmark); a later change that alters an output must fail the benchmark,
not refreeze it.  Usage, from the root of a checkout:

    python3 bench/freeze.py [--contract]

--contract also runs `verify --suite all --order 12` once (about a minute)
and checks its stdout against the ROADMAP's sha256.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from run import REFERENCES, ROOT, RUN_LIMIT_S, run_child
import workloads

sys.path.insert(0, str(ROOT / "src"))


def verify_digest(argv) -> str:
    child = run_child([sys.executable, "-s", "-m", "genusforge.cli", *argv], RUN_LIMIT_S * 4)
    if child.rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {child.rc}")
    return hashlib.sha256(child.stdout).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--contract", action="store_true")
    args = parser.parse_args()

    from genusforge import cli, fgl
    from worker import cpn_mismatches, ladder_step, run_cli, step_digest

    if args.contract:
        sha = verify_digest(workloads.CONTRACT_ARGV)
        print(f"order-12 verify sha256 {sha}: {'matches' if sha == workloads.CONTRACT_SHA256 else 'DIFFERS'}")
        if sha != workloads.CONTRACT_SHA256:
            return 1

    refs = {"verify": {workloads.digest(list(workloads.VERIFY_ARGV)): verify_digest(workloads.VERIFY_ARGV)}}

    steps = [(workloads.LADDER_LAW, o) for o in range(workloads.LADDER_START, 14)]
    refs["steps"] = {}
    for law, order in steps:
        _, built, report = ladder_step(fgl, law, order)
        if not report.passed:
            raise SystemExit(f"{law} fails its axioms at order {order}")
        refs["steps"][workloads.step_key(law, order)] = step_digest(built, report)

    refs["requests"] = {}
    requests = list(workloads.all_requests(workloads.request_catalog()).values())
    outputs = []
    for req in requests:
        rc, out, _ = run_cli(cli, req.argv, req.stdin)
        if rc != 0:
            raise SystemExit(f"request {req.key} exited {rc}")
        outputs.append((rc, out))
        refs["requests"][req.key] = [req.input_digest(), rc, hashlib.sha256(out.encode()).hexdigest()]
    bad = cpn_mismatches(requests, outputs)
    if bad:
        raise SystemExit(f"CP^n answers differ from genus_cpn: {bad}")

    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES.relative_to(ROOT)}: {len(refs['steps'])} ladder steps, "
          f"{len(refs['requests'])} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
