"""Output check: parse every file a command wrote and verify it.

Two kinds of column are checked.  *Verified* columns hold quantities the
paper bounds (dephasing residuals, the machine distance against its bound,
the recurrence residual against the construction, the expander distance
against its envelope, the private-channel fidelity); they are re-checked
against the ``Tolerances`` record the files were written with.  *Payload*
columns are compared with ``reference.json``, made by ``make_reference.py``
at the seed commit, each within the tolerance named beside it here, scaled
by the reference value where that exceeds 1.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import workloads

CONTRACTION_FACTOR = 5.0 * math.sqrt(2.0) / 8.0


def read_csv(path: Path) -> tuple[dict, list[dict[str, str]]]:
    """(metadata header, rows keyed by column name) of a CSV the CLI wrote."""
    meta, rows, header = {}, [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(": ", 1)
            meta[key] = json.loads(value)
        elif header is None:
            header = line.split(",")
        else:
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"{path.name}: row has {len(cells)} cells, header {len(header)}")
            rows.append(dict(zip(header, cells)))
    if header is None:
        raise ValueError(f"{path.name}: no header line")
    return meta, rows


def read_json(path: Path) -> tuple[dict, dict]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc.pop("meta"), doc


def _arg(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


class _Check:
    """Problems found and payload entries ``key -> (value, tolerance name)``
    of one command; a tolerance name of None means an exact comparison."""

    def __init__(self, tol):
        self.tol = tol
        self.problems: list[str] = []
        self.payload: dict[str, tuple] = {}

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def at_most(self, name: str, value: float, limit: float) -> None:
        self.require(value <= limit, f"{name} = {value:.3e} exceeds {limit:.3e}")

    def pay(self, key: str, value, tol_name: str | None = None) -> None:
        self.payload[key] = (value, tol_name)

    def meta(self, meta: dict, argv: list[str]) -> None:
        self.require(meta.get("command") == argv[0], f"header command {meta.get('command')!r}")
        self.require(meta.get("seed") == int(_arg(argv, "--seed")), "header seed differs")
        self.require(meta.get("tolerances") == self.tol.as_dict(),
                     "header tolerances differ from the Tolerances record")
        self.require("timestamp" not in meta, "timestamp written under --deterministic")


def _dephase(c, argv, meta, rows):
    tol = c.tol
    for row in rows:
        c.at_most("system_residual", float(row["system_residual"]), tol.dephasing_residual)
        c.at_most("ancilla_residual", float(row["ancilla_residual"]), tol.catalyst_residual)
    c.require([int(r["trial"]) for r in rows] == list(range(len(rows))), "trial column")
    c.require({int(r["d"]) for r in rows} == {int(_arg(argv, "--d"))}, "d column")
    c.pay("rows", len(rows))
    c.pay("m", meta.get("m"))


def _classical_dephase(c, argv, meta, rows):
    for row in rows:
        c.at_most("residual", float(row["residual"]), c.tol.dephasing_residual)
    c.require(meta["witness_rank"] <= meta["witness_mixture_size"],
              "rank witness exceeds the mixture size")
    c.pay("rows", len(rows))
    c.pay("witness_rank", meta["witness_rank"])
    c.pay("witness_mixture_size", meta["witness_mixture_size"])


def _transition(c, argv, meta, rows):
    for row in rows:
        c.at_most("error", float(row["error"]), c.tol.transition_residual)
    c.pay("rows", len(rows))
    for mode in sorted({r["mode"] for r in rows}):
        dims = {int(r["m"]) for r in rows if r["mode"] == mode}
        c.require(len(dims) == 1, f"noise dimension varies in mode {mode}")
        c.pay(f"m.{mode}", min(dims))


def _machine(c, argv, meta, rows):
    tol = c.tol
    c.require([int(r["n"]) for r in rows] == list(range(1, len(rows) + 1)), "n column")
    previous = -math.inf
    for i, row in enumerate(rows):
        dist, bound = float(row["dist_system"]), float(row["bound"])
        c.at_most(f"dist_system[{i}] - bound", dist - bound, tol.bound_slack)
        entropy = float(row["entropy"])
        c.require(entropy >= previous - tol.entropy_slack, f"entropy decreased at row {i}")
        previous = entropy
        for col in ("dist_system", "dist_ancilla", "entropy", "bound"):
            c.pay(f"{col}[{i}]", float(row[col]), "bound_slack")
    c.pay("rows", len(rows))


def _recur(c, argv, meta, rows):
    for i, row in enumerate(rows):
        c.at_most(f"residual_vs_construction[{i}]", float(row["residual_vs_construction"]),
                  c.tol.recurrence_residual)
        c.pay(f"residual_vs_ideal[{i}]", float(row["residual_vs_ideal"]), "recurrence_residual")
    c.require([int(r["k"]) for r in rows] == list(range(1, len(rows) + 1)), "k column")
    c.pay("rows", len(rows))
    c.pay("factors", meta.get("factors"))


def _fig3_file(c, m, meta, rows):
    c.require(meta.get("m") == m, f"fig3 header m {meta.get('m')} in the m={m} file")
    for i, row in enumerate(rows):
        t = float(row["t_over_m"]) * m
        dist = float(row["distance"])
        k = round(t)
        if 0 < k < m and abs(t - k) < 1e-9:
            c.at_most(f"m={m} distance at t={k}", dist, c.tol.integer_time_residual)
        c.pay(f"m{m}.t_over_m[{i}]", float(row["t_over_m"]), "integer_time_residual")
        c.pay(f"m{m}.distance[{i}]", dist, "integer_time_residual")
    c.pay(f"m{m}.rows", len(rows))


def _expander(c, argv, meta, rows):
    tol = c.tol
    d = meta["d"]
    for k, row in enumerate(rows):
        measured, bound = float(row["measured_2norm"]), float(row["bound"])
        c.at_most(f"measured_2norm[{k}] - bound", measured - bound, tol.bound_slack)
        envelope = math.sqrt(2.0 * d ** 3) * CONTRACTION_FACTOR ** k
        c.require(abs(bound - envelope) <= tol.bound_slack * max(1.0, envelope),
                  f"bound[{k}] is not the analytic envelope")
        c.pay(f"measured_2norm[{k}]", measured, "parseval")
        c.pay(f"bound[{k}]", bound, "bound_slack")
    c.require([int(r["k"]) for r in rows] == list(range(len(rows))), "k column")
    c.pay("rows", len(rows))
    c.pay("fitted_decay", meta["fitted_decay"], "parseval")
    c.pay("min_eigenvalue", meta["min_eigenvalue"], "eig_clamp")


def _chain(c, argv, meta, doc):
    tol = c.tol
    for i, res in enumerate(doc["marginal_residuals"]):
        c.at_most(f"marginal_residual[{i}]", res, tol.chain_residual)
    c.at_most("catalyst_residual", doc["catalyst_residual"], tol.chain_residual)
    mi = doc["mutual_information_bits"]
    n = doc["n"]
    c.require(len(mi) == n and all(len(row) == n for row in mi), "mutual information shape")
    for i in range(n):
        c.require(mi[i][i] == 0.0, "mutual information diagonal")
        for j in range(i + 1, n):
            c.require(mi[i][j] == mi[j][i], "mutual information symmetry")
            c.require(mi[i][j] >= -tol.entropy_slack, "negative mutual information")
            c.pay(f"mi[{i},{j}]", mi[i][j], "entropy_slack")
    c.pay("n", n)
    c.pay("d", doc["d"])


def _pqc(c, argv, meta, doc):
    tol = c.tol
    c.at_most("ciphertext_marginal_distance", doc["ciphertext_marginal_distance"],
              tol.pqc_security)
    c.at_most("1 - recovered_fidelity", 1.0 - doc["recovered_fidelity"], tol.pqc_security)
    error = _arg(argv, "--error")
    a, b, cc, d = (int(x) for x in (error or "0000"))
    predicted = f"{a}{cc}{b}{(a + d) % 2}"
    c.require(doc["syndrome"] == predicted, f"syndrome {doc['syndrome']} != {predicted}")
    if error is None:
        c.require(doc["verdict"] == "accept", "clean transmission rejected")
    c.pay("syndrome", doc["syndrome"])
    c.pay("verdict", doc["verdict"])
    c.pay("ebits_consumed", doc["ebits_consumed"])
    c.pay("recovered_fidelity", doc["recovered_fidelity"], "pqc_fidelity")


def _bounds(c, argv, meta, doc):
    tol = c.tol
    for kind in ("quantum", "classical"):
        rep = doc[kind]
        c.at_most(f"{kind}.epsilon_measured", rep["epsilon_measured"], tol.dephasing_residual)
        c.require(rep["satisfied"], f"{kind} noise dimension below its lower bound")
        c.pay(f"{kind}.m", rep["m"])
        c.pay(f"{kind}.bound", rep["bound"], "bound_slack")
    budget = doc["entropy_budget"]
    gap = abs(budget["output"] - budget["ancilla"])
    c.at_most("entropy gap - joint", gap - budget["joint"], tol.bound_slack)
    c.require(abs(budget["joint"] - math.log2(doc["quantum"]["m"])) <= tol.bound_slack,
              "joint entropy is not log2 m")
    for key in ("joint", "output", "ancilla"):
        c.pay(f"entropy.{key}", budget[key], "bound_slack")
    c.pay("entropy.saturated", budget["saturated"])


_CSV = {"dephase": _dephase, "classical-dephase": _classical_dephase,
        "transition": _transition, "machine": _machine, "recur": _recur,
        "expander": _expander}
_JSON = {"chain": _chain, "pqc": _pqc, "bounds": _bounds}


def written_files(workdir: Path, index: int, argv: list[str]) -> list[Path]:
    """The files the command at ``index`` should have written."""
    name = workloads.out_name(index, argv[0])
    if argv[0] == "fig3":
        return [workdir / f"{name}_m{m}.csv" for m in _arg(argv, "--m").split(",")]
    return [workdir / name]


def check_command(workdir: Path, index: int, argv: list[str], exit_code: int,
                  stderr: str, tol) -> tuple[list[str], dict]:
    """Problems with one command's outcome, and its payload.

    The outcome is right when the command exited as expected (0, or the
    by-design failure with its message) and every file it wrote parses and
    passes its checks.
    """
    c = _Check(tol)
    expected = workloads.expected_failure(argv)
    files = written_files(workdir, index, argv)
    if expected is not None:
        c.require(exit_code == 1 and stderr == expected,
                  f"expected exit 1 with {expected!r}, got {exit_code} {stderr!r}")
        c.require(not any(f.exists() for f in files), "a failed command wrote output")
        return c.problems, c.payload
    if exit_code != 0:
        c.problems.append(f"exit {exit_code}: {stderr}")
        return c.problems, c.payload
    try:
        for path in files:
            if argv[0] == "fig3":
                meta, rows = read_csv(path)
                c.meta(meta, argv)
                _fig3_file(c, int(path.stem.rsplit("_m", 1)[1]), meta, rows)
            elif argv[0] in _JSON:
                meta, doc = read_json(path)
                c.meta(meta, argv)
                _JSON[argv[0]](c, argv, meta, doc)
            else:
                meta, rows = read_csv(path)
                c.meta(meta, argv)
                _CSV[argv[0]](c, argv, meta, rows)
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        c.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return c.problems, c.payload


def _values_close(value, ref, tol_value) -> bool:
    if tol_value is None or isinstance(value, (str, bool, list)) or value is None:
        return value == ref
    return abs(value - ref) <= tol_value * max(1.0, abs(ref))


def compare_reference(payload: dict, entry: dict | None, seed: int, tol) -> tuple[list[str], bool]:
    """Mismatches of a command's payload against its reference entry, and
    whether every payload value had a reference for this seed.

    ``entry`` holds ``invariant`` values, the same for every reference seed,
    and ``by_seed`` values for the seeds the reference was made at.
    """
    if entry is None:
        return ["no reference entry for this command"], False
    problems = []
    expected = dict(entry["invariant"])
    per_seed = entry["by_seed"].get(str(seed))
    complete = per_seed is not None or not entry["keys"]
    if per_seed is not None:
        expected.update(zip(entry["keys"], per_seed))
    for key, ref in expected.items():
        if key not in payload:
            problems.append(f"{key} missing")
            continue
        value, tol_name = payload[key]
        tol_value = getattr(tol, tol_name) if tol_name else None
        if not _values_close(value, ref, tol_value):
            problems.append(f"{key} = {value!r}, reference {ref!r}")
    known = set(entry["invariant"]) | set(entry["keys"])
    problems += [f"{key} is not in the reference" for key in payload if key not in known]
    return problems, complete
