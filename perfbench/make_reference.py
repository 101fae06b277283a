"""Write ``reference.json``: the payload columns of every workload command.

    python3 perfbench/make_reference.py

Run this only at a commit whose outputs are the intended reference (the
file in the repository was made at the seed commit of the benchmark).  The
file is rebuilt from scratch for every workload, so ``made_at`` holds for
all of it.  One pass per workload and seed in ``SEEDS``; every command must pass its
verified-column checks.  A value that is identical for all seeds is stored
once as *invariant* and is checked for any seed; the others are stored per
seed and are checked only for those seeds.
"""

from __future__ import annotations

import json
import os
import sys

import outputs
import run
import workloads

SEEDS = tuple(range(0, 11))


def build(workload: str, tol, env: dict) -> dict:
    payloads: dict[int, dict[str, dict]] = {}
    passdir = run.WORK / "reference" / workload
    for seed in SEEDS:
        result = run.run_child(workload, seed, False, passdir, env)
        payloads[seed] = {}
        for index, rec in enumerate(result["commands"]):
            problems, payload = outputs.check_command(passdir, index, rec["argv"], rec["exit"],
                                                      rec["stderr"], tol)
            if problems:
                raise SystemExit(f"{workload} seed {seed} {rec['argv']}: {problems}")
            if workloads.expected_failure(rec["argv"]) is None:
                payloads[seed][workloads.key(rec["argv"])] = payload
        print(f"{workload} seed {seed}: {result['wall_s']:.2f} s", file=sys.stderr)

    entries = {}
    for cmd, first in payloads[SEEDS[0]].items():
        invariant, varying = {}, []
        for key, (value, _) in first.items():
            if all(payloads[s][cmd][key][0] == value for s in SEEDS):
                invariant[key] = value
            else:
                varying.append(key)
        entries[cmd] = {
            "invariant": invariant,
            "keys": varying,
            "by_seed": {str(s): [payloads[s][cmd][k][0] for k in varying] for s in SEEDS}
            if varying else {},
        }
    return entries


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from dephaselab.tolerances import TOL

    env = run.child_env(min(run.MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    doc = {"made_at": run.git_sha(), "seeds": list(SEEDS),
           "workloads": {w: build(w, TOL, env) for w in workloads.WORKLOADS}}
    (run.HERE / "reference.json").write_text(dump(doc), encoding="utf-8")
    return 0


def dump(doc: dict) -> str:
    """JSON with one line per command entry, so diffs stay readable."""
    lines = ["{", f' "made_at": {json.dumps(doc["made_at"])},',
             f' "seeds": {json.dumps(doc["seeds"])},', ' "workloads": {']
    for i, (workload, entries) in enumerate(sorted(doc["workloads"].items())):
        lines.append(f"  {json.dumps(workload)}: {{")
        items = sorted(entries.items())
        for j, (cmd, entry) in enumerate(items):
            comma = "," if j < len(items) - 1 else ""
            lines.append(f"   {json.dumps(cmd)}: {json.dumps(entry, sort_keys=True)}{comma}")
        lines.append("  }" + ("," if i < len(doc["workloads"]) - 1 else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
