"""The benchmark workloads: the CLI commands one pass runs, in order.

A workload is a fixed list of commands; the workload seed reaches the
program only as each command's ``--seed``.  Each command writes to its own
file, named by its position, in the pass's working directory.  See
``README.md`` beside this file for why each workload was chosen.
"""

from __future__ import annotations

#: The message of the one by-design failure in the workloads: the composite
#: m = 9 tensor construction returns early at t = 3 (acceptance criterion 5,
#: documented in the project README).  The command stays in its workload and
#: counts in ``ops_failed_ratio``.
FIG3_M9_FAILURE = "check failed: integer-time distance too large at m=9, t=3"

JSON_COMMANDS = ("chain", "pqc", "bounds")


def _many_small() -> list[list[str]]:
    cmds = [["dephase", "--d", str(d)] for d in range(2, 17)]
    cmds += [["classical-dephase", "--d", str(d)] for d in range(2, 17)]
    cmds += [["transition", "--d", str(d), "--mode", "both"] for d in range(2, 7)]
    cmds += [["chain", "--n", str(n), "--d", str(d)] for n in (2, 3, 4) for d in (2, 3)]
    cmds += [["machine", "--d", str(d)] for d in (4, 9)]
    cmds += [["recur", "--m", str(m)] for m in (3, 5, 7)]
    cmds += [["fig3", "--m", "3,5"]]
    cmds += [["pqc"]] + [["pqc", "--error", format(e, "04b")] for e in range(16)]
    cmds += [["expander", "--e", str(e)] for e in (3, 5)]
    cmds += [["bounds", "--d", str(d)] for d in (4, 9, 16)]
    return cmds


def _time_and_phase() -> list[list[str]]:
    cmds = [["recur", "--m", str(m)] for m in (9, 11, 13)]
    cmds += [["fig3", "--m", "7", "--samples", "64"],
             ["fig3", "--m", "9", "--samples", "16"],
             ["fig3", "--m", "11", "--samples", "16"]]
    cmds += [["expander", "--e", "7", "--k", "30"],
             ["expander", "--e", "9", "--k", "20"]]
    return cmds


_COMMAND_LISTS = {
    "many-small": _many_small,
    "time-and-phase": _time_and_phase,
}

WORKLOADS = tuple(_COMMAND_LISTS)


def out_name(index: int, command: str) -> str:
    """The ``--out`` value of the command at ``index`` (a prefix for fig3)."""
    stem = f"{index:02d}_{command}"
    if command == "fig3":
        return stem
    return stem + (".json" if command in JSON_COMMANDS else ".csv")


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv of every command of one pass; a function of its arguments only."""
    return [argv + ["--seed", str(seed), "--out", out_name(i, argv[0]), "--deterministic"]
            for i, argv in enumerate(_COMMAND_LISTS[workload]())]


def key(argv: list[str]) -> str:
    """The command without its seed and output flags, naming it in the
    reference file and in reports."""
    kept, skip = [], False
    for word in argv:
        if skip:
            skip = False
        elif word in ("--seed", "--out"):
            skip = True
        elif word != "--deterministic":
            kept.append(word)
    return " ".join(kept)


def expected_failure(argv: list[str]) -> str | None:
    """The stderr line of a by-design exit 1, or None when exit 0 is expected."""
    if argv[0] == "fig3" and "9" in argv[argv.index("--m") + 1].split(","):
        return FIG3_M9_FAILURE
    return None
