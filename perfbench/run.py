"""dephaselab benchmark: CLI workloads timed end to end, layers traced from outside.

    python3 perfbench/run.py --workload many-small --seed 1 --seconds 60 --trace 0

A run is a closed loop with one client.  After a few set-up-only
interpreters it repeats *passes* until the next one, if it took as long as
the last, would end more than ``--seconds`` after the run started.  Each
pass is one fresh interpreter that
imports ``dephaselab.cli`` from ``src/`` and runs every command of the
workload in order through ``cli.main(argv)``, each starting when the
previous one has returned, so library caches start empty in every pass.
Every file a command writes is checked (``outputs.py``).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates plain and traced passes and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  Files go to ``.perfbench_work/`` in
the checkout.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import outputs
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: BLAS threads per pass, never more than the CPUs this process may use.
#: Fixed rather than "all CPUs" so figures compare across machines.
MAX_BLAS_THREADS = 2
#: Set-up-only interpreters started before the passes; they add set-up
#: samples and warm the file cache.
SETUP_ONLY_RUNS = 3
CHILD_TIMEOUT_S = 150

COMMAND_NAMES = ("dephase", "classical-dephase", "transition", "chain", "machine",
                 "recur", "fig3", "pqc", "expander", "bounds")


def command_metric(command: str) -> str:
    return command.replace("-", "_") + "_s"


#: (name, unit) of every metric, in the order BENCHMARK.json lists them.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    [(f"{name}.{field}", unit) for name in spans.REPORTED
     for field, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"{layer}.self_s", "s") for layer in spans.LAYERS]
    + [("dephaser.joint_dim_max", "dim_computed"), ("recurrence.joint_dim_max", "dim_computed"),
       ("qcore.tensor.bytes_out", "bytes_computed"), ("reporting.bytes_written", "bytes_computed")]
    + [("trace_overhead_s", "s"), ("ops_failed_ratio", "ratio")]
    + [(command_metric(c), "s") for c in COMMAND_NAMES]
)


class PassError(RuntimeError):
    """A pass interpreter failed to start, crashed or timed out."""


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(workload: str, seed: int, traced: bool, passdir: Path, env: dict) -> dict:
    """Run one pass (or, for workload ``setup``, only the set-up) in a
    fresh interpreter whose working directory is the emptied ``passdir``."""
    shutil.rmtree(passdir, ignore_errors=True)
    passdir.mkdir(parents=True)
    result_path = passdir.parent / f"{passdir.name}.result.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(ROOT), workload, str(seed),
            "1" if traced else "0", str(result_path)]
    try:
        proc = subprocess.run(argv, cwd=passdir, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise PassError(f"pass interpreter exited {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def file_hashes(passdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(passdir.iterdir())}


class Run:
    """The passes of one run and what their output check found."""

    def __init__(self, workload: str, seed: int, tol, reference: dict):
        self.workload = workload
        self.seed = seed
        self.tol = tol
        self.reference = reference.get("workloads", {}).get(workload, {})
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.setup: list[float] = []
        self.attempted = 0
        self.failed = 0          # outcome differs from the expected one
        self.nonzero_or_bad = 0  # exit != 0 or a failed output check
        self.problems: list[str] = []
        self.reference_complete = True
        self._baseline: dict[str, str] | None = None

    def add(self, result: dict, traced: bool, passdir: Path) -> None:
        self.setup.append(result["setup_s"])
        (self.traced if traced else self.plain).append(result)
        hashes = file_hashes(passdir)
        if self._baseline is None:
            self._baseline = hashes
        changed = {name[:2] for name in set(hashes) ^ set(self._baseline)}
        changed |= {name[:2] for name in hashes.keys() & self._baseline.keys()
                    if hashes[name] != self._baseline[name]}
        label = "traced" if traced else "plain"
        for index, rec in enumerate(result["commands"]):
            argv = rec["argv"]
            problems, payload = outputs.check_command(passdir, index, argv, rec["exit"],
                                                      rec["stderr"], self.tol)
            if not problems and workloads.expected_failure(argv) is None:
                mismatches, complete = outputs.compare_reference(
                    payload, self.reference.get(workloads.key(argv)), self.seed, self.tol)
                problems += mismatches
                self.reference_complete &= complete
            if f"{index:02d}" in changed:
                problems.append(f"output differs from the first pass ({label} pass)")
            self.attempted += 1
            self.failed += bool(problems)
            self.nonzero_or_bad += bool(problems) or rec["exit"] != 0
            self.problems += [f"{workloads.key(argv)}: {p}" for p in problems[:3]]
        for err in result.get("trace", {}).get("nesting_errors", []):
            self.problems.append(f"trace: {err}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def command_seconds(self) -> dict[str, float]:
        """Per command name, the median over plain passes of its summed time."""
        out = {}
        for name in COMMAND_NAMES:
            sums = [sum(r["seconds"] for r in res["commands"] if r["argv"][0] == name)
                    for res in self.plain]
            if any(sums):
                out[command_metric(name)] = statistics.median(sums)
        return out

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": statistics.median(r["wall_s"] for r in self.plain),
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.plain),
        }

    def trace_overhead(self) -> float:
        """Median over (plain, traced) pass pairs of the traced pass's extra
        wall time; each traced pass runs right after its plain pass."""
        return statistics.median(t["wall_s"] - p["wall_s"]
                                 for p, t in zip(self.plain, self.traced))

    def per_layer(self) -> dict[str, float]:
        traces = [r["trace"] for r in self.traced]
        out = {}
        for name in spans.REPORTED:
            calls = {t["functions"].get(name, {}).get("calls", 0) for t in traces}
            if len(calls) != 1:
                self.problems.append(f"trace: {name} call count varies between passes")
            out[f"{name}.calls"] = max(calls)
            out[f"{name}.self_s"] = statistics.median(
                t["functions"].get(name, {}).get("self_s", 0.0) for t in traces)
        for layer in spans.LAYERS:
            out[f"{layer}.self_s"] = statistics.median(t["modules"][layer] for t in traces)
        for name in spans.COUNT_NAMES:
            values = {t["counts"][name] for t in traces}
            if len(values) != 1:
                self.problems.append(f"trace: computed count {name} varies between passes")
            out[name] = max(values)
        out["trace_overhead_s"] = self.trace_overhead()
        out["ops_failed_ratio"] = self.nonzero_or_bad / self.attempted
        seconds = self.command_seconds()
        for name in COMMAND_NAMES:
            out[command_metric(name)] = seconds.get(command_metric(name), 0.0)
        return out


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "dephaselab" / "cli.py").is_file():
        return fail(f"no library at {src}; run from a checkout of the repository")
    reference_path = HERE / "reference.json"
    if not reference_path.is_file():
        return fail(f"missing {reference_path}")
    reference = json.loads(reference_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    from dephaselab.tolerances import TOL

    nproc = len(os.sched_getaffinity(0))
    threads = min(MAX_BLAS_THREADS, nproc)
    env = child_env(threads)
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    run = Run(args.workload, args.seed, TOL, reference)

    start = time.perf_counter()
    try:
        for _ in range(SETUP_ONLY_RUNS):
            first = run_child("setup", args.seed, False, workdir / "setup", env)
            run.setup.append(first["setup_s"])
        blas = first["blas"]
        if blas["threads"] is not None and blas["threads"] > nproc:
            return fail(f"BLAS runs {blas['threads']} threads on {nproc} CPUs")
        header = {
            "git_sha": git_sha(), "python": first["python"], "numpy": first["numpy"],
            "scipy": first["scipy"], "blas": blas["library"], "blas_config": blas["config"],
            "blas_threads": blas["threads"], "nproc": nproc, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "loop": "closed, one client, one command at a time",
            "commands_per_pass": len(workloads.commands(args.workload, args.seed)),
        }
        print(f"# header {json.dumps(header, sort_keys=True)}", flush=True)

        kinds = [False, True] if args.trace else [False]
        while True:
            t0 = time.perf_counter()
            for traced in kinds:
                passdir = workdir / "pass"
                run.add(run_child(args.workload, args.seed, traced, passdir, env), traced, passdir)
            # A round (one pass, or a plain and a traced pass) is predicted
            # to take as long as the last one, which follows the host's speed.
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
    except PassError as exc:
        return fail(str(exc))
    spans_file = workdir / "pass.result.json.spans.json"
    if spans_file.exists():
        spans_file.replace(workdir / "spans.json")

    e2e = run.end_to_end()
    metrics = run.per_layer() if args.trace else e2e
    units = dict(END_TO_END + tuple(PER_LAYER))
    print(f"# passes: {len(run.plain)} plain, {len(run.traced)} traced; "
          f"set-up samples: {len(run.setup)}; commands attempted: {run.attempted}; "
          f"run took {time.perf_counter() - start:.1f} s")
    print("# pass wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in run.plain))
    if len(run.traced) == 1:
        print("# one traced pass: every per-layer time and trace_overhead_s is a single "
              "sample, and the call and computed counts were not compared across passes")
    elif run.traced:
        print(f"# per-layer times are medians over {len(run.traced)} traced passes; "
              f"trace_overhead_s is the median of {len(run.traced)} (plain, traced) pairs")
    print(f"# output check: {'ok' if run.correct else 'FAILED'}; reference "
          f"{'complete' if run.reference_complete else 'invariant columns only for this seed'}")
    for problem in run.problems[:20]:
        print(f"#   {problem}")
    shown = dict(e2e)
    shown.update(metrics if args.trace else {
        "ops_failed_ratio": run.nonzero_or_bad / run.attempted, **run.command_seconds()})
    for name, value in shown.items():
        print(f"{name:<52} {value:>16.6f} {units[name]}")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
