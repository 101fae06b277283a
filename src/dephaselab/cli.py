"""Experiment commands: seeded, deterministic, file-emitting.

Every subcommand draws its randomness from one master seed (per-trial
streams are spawned, so ordering and parallelism cannot change the data),
writes its payload with a metadata header, and exits nonzero when a
numerical check fails:

    exit 0  - ran and all internal checks passed
    exit 1  - a verification inequality failed
    exit 2  - usage or configuration error, a violated precondition, or a
              joint space above the dimension cap (one line on stderr)

A JSON config file mirroring the flags may be passed via ``--config``;
its values are parsed by the flags' own types, explicit flags win over
config values and unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import dephaser, expander, pqc, recurrence, reporting
from .qcore import (DimensionError, InvariantViolation, PreconditionError,
                    ResourceLimitError, block_trace_norm, partial_trace, require_dim,
                    tensor, trace_norm)  # noqa: F401 (perfbench/tests)
from .sampling import (random_density_matrices, random_density_matrix,
                       random_majorizing_pairs, spawn_rngs)
from .tolerances import TOL, Tolerances


class CheckFailure(Exception):
    """A verification inequality did not hold."""


#: Matrix entries per stack of trials (16 MiB of complex128): d >= 1024 runs one at a time.
_CHUNK_ENTRIES = 2 ** 20


def _trial_chunks(seed: int, trials: int, d: int) -> list[tuple[int, list]]:
    """(index of the first trial, its generators) for each stack of trials."""
    rngs, size = spawn_rngs(seed, trials), max(1, _CHUNK_ENTRIES // (d * d))
    return [(start, rngs[start:start + size]) for start in range(0, trials, size)]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    values = [int(x) for x in text.split(",") if x]
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


def _error_bits(text: str) -> tuple[int, ...]:
    if len(text) != 4 or set(text) - {"0", "1"}:
        raise argparse.ArgumentTypeError("error must be four bits, e.g. 0100")
    return tuple(int(b) for b in text)


@functools.cache    # once per process: _apply_config restores every default it sets
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dephaselab",
        description="Dephasing constructions from minimal sources of randomness.")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file mirroring the flags of the chosen command")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", type=str, default=None, help="output path (or prefix)")
        p.add_argument("--deterministic", action="store_true",
                       help="omit the timestamp so outputs are byte-stable")
        p.add_argument("--tol-file", type=str, default=None,
                       help="JSON file with tolerance overrides")

    p = sub.add_parser("dephase", help="exact quantum dephasing residuals")
    p.add_argument("--d", type=_positive_int, default=9)
    p.add_argument("--trials", type=_non_negative_int, default=50)
    common(p)

    p = sub.add_parser("classical-dephase", help="clock-mixture dephasing and rank witness")
    p.add_argument("--d", type=_positive_int, default=9)
    p.add_argument("--trials", type=_non_negative_int, default=50)
    common(p)

    p = sub.add_parser("transition", help="random majorizing state transitions")
    p.add_argument("--d", type=_positive_int, default=4)
    p.add_argument("--trials", type=_non_negative_int, default=100)
    p.add_argument("--mode", choices=["quantum", "classical", "both"], default="both")
    common(p)

    p = sub.add_parser("chain", help="dephase several systems with one catalyst")
    p.add_argument("--n", type=_non_negative_int, default=3, help="number of systems")
    p.add_argument("--d", type=_positive_int, default=2, help="dimension per system")
    common(p)

    p = sub.add_parser("machine", help="iterated dephasing with imperfect fuel")
    p.add_argument("--d", type=_positive_int, default=4)
    p.add_argument("--iters", type=int, default=20)
    common(p)

    p = sub.add_parser("recur", help="stroboscopic maps of the recurrence coupling")
    p.add_argument("--m", type=_positive_int, default=3, help="odd ancilla dimension")
    p.add_argument("--kmax", type=_non_negative_int, default=None, help="default 2m")
    common(p)

    p = sub.add_parser("fig3", help="continuous-time robustness sweep")
    p.add_argument("--m", type=_int_list, default=[3, 5, 7], help="comma list of odd m")
    p.add_argument("--samples", type=_non_negative_int, default=64)
    common(p)

    p = sub.add_parser("pqc", help="private-channel transcript")
    p.add_argument("--error", type=_error_bits, default=None,
                   help="four bits abcd; omit for a clean transmission")
    p.add_argument("--rounds", type=int, default=8)
    common(p)

    p = sub.add_parser("expander", help="phase-space walk convergence")
    p.add_argument("--e", type=_positive_int, default=3, help="odd lattice size")
    p.add_argument("--k", type=int, default=20)
    common(p)

    p = sub.add_parser("bounds", help="noise-dimension lower bounds")
    p.add_argument("--d", type=_positive_int, default=9)
    p.add_argument("--epsilon", type=float, default=0.0)
    common(p)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config: {exc}")
    if not isinstance(data, dict):
        parser.error("config must be a JSON object")
    sub = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    flags = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    unknown = set(data) - set(flags)
    if unknown:
        parser.error(f"unknown config fields: {sorted(unknown)}")
    defaults = {}
    for key, val in data.items():
        if val is None:    # null keeps the flag's default
            continue
        if flags[key].nargs == 0:
            if not isinstance(val, bool):
                parser.error(f"config field {key!r} must be true or false")
            defaults[key] = val
        else:
            # argparse parses string defaults with the flag's own type
            defaults[key] = ",".join(map(str, val)) if isinstance(val, list) else str(val)
    saved = {key: flags[key].default for key in defaults}
    sub.set_defaults(**defaults)
    try:
        return parser.parse_args(argv)
    finally:
        sub.set_defaults(**saved)


def _outpath(args, default_name: str) -> Path:
    return Path(args.out) if args.out else Path(default_name)


def _tol(args) -> Tolerances:
    return Tolerances.from_json(args.tol_file) if args.tol_file else TOL


# ---------------------------------------------------------------------------
# Command bodies
# ---------------------------------------------------------------------------

def cmd_dephase(args, tol: Tolerances) -> None:
    d = args.d
    require_dim(d, tol)
    ops = dephaser.dephasing_ops(d)
    m = dephaser.ancilla_dim(d)
    eye_m = np.eye(m, dtype=complex) / m
    rows = []
    for start, rngs in _trial_chunks(args.seed, args.trials, d):
        rho = random_density_matrices(d, rngs)
        system, ancilla = dephaser.couple(rho, eye_m, None, ops)
        sys_res = trace_norm(system - dephaser.pinch(rho)).tolist()
        anc_res = trace_norm(ancilla - eye_m).tolist()
        for trial, (s_res, a_res) in enumerate(zip(sys_res, anc_res), start):
            rows.append(f"{d},{trial},{s_res:.16e},{a_res:.16e}")
            if s_res > tol.dephasing_residual or a_res > tol.catalyst_residual:
                raise CheckFailure(f"residual above tolerance at trial {trial}")
    meta = reporting.metadata("dephase", args.seed, tol, args.deterministic)
    meta["d"], meta["m"], meta["trials"] = d, m, args.trials
    reporting.write_csv(_outpath(args, "dephase.csv"), meta,
                        "d,trial,system_residual,ancilla_residual", rows)


def cmd_classical_dephase(args, tol: Tolerances) -> None:
    d = args.d
    channel = dephaser.gram_channel(d, "classical", tol)
    rows = []
    for start, rngs in _trial_chunks(args.seed, args.trials, d):
        rho = random_density_matrices(d, rngs)
        residuals = trace_norm(channel.apply(rho) - dephaser.pinch(rho)).tolist()
        for trial, res in enumerate(residuals, start):
            rows.append(f"{d},{trial},{res:.16e}")
            if res > tol.dephasing_residual:
                raise CheckFailure(f"residual above tolerance at trial {trial}")
    # rank witness: a mixture one unitary short cannot reach full rank
    truncated = dephaser.gram_channel(d, "classical", tol, count=d - 1)
    rank, m_trunc = bounds_mod.rank_witness(truncated, tol)
    if rank > m_trunc:
        raise CheckFailure("rank witness exceeded the mixture size")
    meta = reporting.metadata("classical-dephase", args.seed, tol, args.deterministic)
    meta.update({"d": d, "m": d, "witness_mixture_size": m_trunc, "witness_rank": rank})
    reporting.write_csv(_outpath(args, "classical_dephase.csv"), meta,
                        "d,trial,residual", rows)


def cmd_transition(args, tol: Tolerances) -> None:
    modes = ["quantum", "classical"] if args.mode == "both" else [args.mode]
    channels = {mode: dephaser.gram_channel(args.d, mode, tol) for mode in modes}
    rows = []
    for start, rngs in _trial_chunks(args.seed, args.trials, args.d):
        rho, rho_prime = random_majorizing_pairs(args.d, rngs)
        pre, post = dephaser.transition_rotations(rho, rho_prime, tol)
        errors = [trace_norm(dephaser.TransitionPlan(pre, channel, post).apply(rho)
                             - rho_prime).tolist() for channel in channels.values()]
        for trial, trial_errors in enumerate(zip(*errors), start):
            for (mode, channel), err in zip(channels.items(), trial_errors):
                rows.append(f"{args.d},{trial},{mode},{channel.noise_dim},{err:.16e}")
                if err > tol.transition_residual:
                    raise CheckFailure(f"transition error {err} at trial {trial} ({mode})")
    meta = reporting.metadata("transition", args.seed, tol, args.deterministic)
    meta["d"], meta["trials"] = args.d, args.trials
    reporting.write_csv(_outpath(args, "transition.csv"), meta,
                        "d,trial,mode,m,error", rows)


def cmd_chain(args, tol: Tolerances) -> None:
    rngs = spawn_rngs(args.seed, args.n)
    from .sampling import random_pure_state
    states = [random_pure_state(args.d, rng) for rng in rngs]
    _, report = dephaser.catalytic_chain(states, tol=tol)
    if max(report.marginal_residuals) > tol.chain_residual:
        raise CheckFailure("a chain marginal deviates from its pinch")
    if report.catalyst_residual > tol.chain_residual:
        raise CheckFailure("catalyst marginal deviates from maximally mixed")
    meta = reporting.metadata("chain", args.seed, tol, args.deterministic)
    payload = {
        "n": args.n,
        "d": args.d,
        "marginal_residuals": list(report.marginal_residuals),
        "catalyst_residual": report.catalyst_residual,
        "mutual_information_bits": report.mutual_information.tolist(),
    }
    reporting.write_json(_outpath(args, "chain.json"), meta, payload)


def cmd_machine(args, tol: Tolerances) -> None:
    d = args.d
    require_dim(d, tol)
    rng_rho, rng_sigma = spawn_rngs(args.seed, 2)
    m = dephaser.ancilla_dim(d)
    rho = random_density_matrix(d, rng_rho)
    sigma = random_density_matrix(m, rng_sigma)
    report = dephaser.machine_iterate(rho, [sigma] * args.iters, tol)
    for row in report.rows:
        if row.dist_system > row.bound_system + tol.bound_slack:
            raise CheckFailure(f"system bound violated at n={row.n}")
        if d == m * m and row.dist_ancilla > row.bound_ancilla + tol.bound_slack:
            raise CheckFailure(f"ancilla bound violated at n={row.n}")
    meta = reporting.metadata("machine", args.seed, tol, args.deterministic)
    meta["d"], meta["m"], meta["iters"] = d, m, args.iters
    reporting.write_csv(_outpath(args, "machine.csv"), meta,
                        dephaser.MachineReport.CSV_HEADER, report.csv_rows())


def cmd_recur(args, tol: Tolerances) -> None:
    require_dim(args.m ** 2, tol)
    spec = recurrence.RecurrenceSpec.for_ancilla(args.m)
    kmax = args.kmax if args.kmax is not None else 2 * spec.m
    rng = spawn_rngs(args.seed, 1)[0]
    rho = random_density_matrix(spec.d, rng)
    rows = []
    for k in range(1, kmax + 1):
        groups = recurrence.label_groups(spec, k)
        got = recurrence.stroboscopic_map(spec, rho, k)
        exact = recurrence.construction_predicted_map(spec, rho, k)
        r_exact = block_trace_norm(got - exact, groups)
        # the predictions coincide at prime m and at k coprime to m or divisible by it
        r_ideal = r_exact if math.gcd(k, spec.m) in (1, spec.m) else block_trace_norm(
            got - recurrence.predicted_map(k, spec.m, rho), groups)
        rows.append(f"{spec.m},{k},{r_ideal:.16e},{r_exact:.16e}")
        if r_exact > tol.recurrence_residual:
            raise CheckFailure(f"construction prediction violated at k={k}")
    meta = reporting.metadata("recur", args.seed, tol, args.deterministic)
    meta["m"], meta["factors"] = spec.m, list(spec.factors)
    reporting.write_csv(_outpath(args, "recur.csv"), meta,
                        "m,k,residual_vs_ideal,residual_vs_construction", rows)


def cmd_fig3(args, tol: Tolerances) -> None:
    require_dim(max(args.m) ** 2, tol)
    periods = [recurrence.Fig3Period(m, args.samples) for m in args.m]
    prefix = args.out if args.out else "fig3"
    meta_base = reporting.metadata("fig3", args.seed, tol, args.deterministic)
    for period in periods:
        m = period.m
        # the integer times first, so a failing check costs only those points
        for k in range(1, m):
            if period.distance_at(float(k)) > tol.integer_time_residual:
                raise CheckFailure(f"integer-time distance too large at m={m}, t={k}")
        meta = dict(meta_base)
        meta["m"], meta["samples"] = m, args.samples
        reporting.write_csv(Path(f"{prefix}_m{m}.csv"), meta,
                            recurrence.TimeSweep.CSV_HEADER, period.sweep().csv_rows())


def cmd_pqc(args, tol: Tolerances) -> None:
    require_dim(64, tol)    # the encode and decode joints, (S, A1, B1, A2, B2)
    rng = spawn_rngs(args.seed, 1)[0]
    rho = random_density_matrix(4, rng)
    err = None if args.error is None else pqc.PauliError(*args.error)
    transcript = pqc.run_transcript(rho, err, auth_rounds=args.rounds,
                                    seed=args.seed, tol=tol)
    if transcript["ciphertext_marginal_distance"] > tol.pqc_security:
        raise CheckFailure("ciphertext is distinguishable from maximally mixed")
    if transcript["recovered_fidelity"] < 1.0 - tol.pqc_security:
        raise CheckFailure("message was not recovered")
    meta = reporting.metadata("pqc", args.seed, tol, args.deterministic)
    reporting.write_json(_outpath(args, "pqc.json"), meta, transcript)


def cmd_expander(args, tol: Tolerances) -> None:
    require_dim(args.e ** 2, tol)
    spec = expander.ExpanderSpec(e=args.e, k=args.k)
    rho = dephaser.maximally_coherent_state(spec.d)
    report = expander.theorem3_verify(spec, rho)
    if not report.satisfied():
        raise CheckFailure("measured distance exceeded the analytic envelope")
    meta = reporting.metadata("expander", args.seed, tol, args.deterministic)
    meta["e"], meta["d"], meta["fitted_decay"] = spec.e, spec.d, report.fitted_decay
    meta["min_eigenvalue"] = min(report.min_eigenvalue)
    reporting.write_csv(_outpath(args, "expander.csv"), meta,
                        expander.ConvergenceReport.CSV_HEADER, report.csv_rows())


def cmd_bounds(args, tol: Tolerances) -> None:
    d, eps = args.d, args.epsilon
    quantum = dephaser.gram_channel(d, "quantum", tol)
    classical = dephaser.gram_channel(d, "classical", tol)
    probes = bounds_mod.default_probes(d, seed=args.seed)
    rep_q = bounds_mod.measure_epsilon(quantum, probes=probes)
    rep_c = bounds_mod.measure_epsilon(classical, probes=probes)
    if max(rep_q.epsilon_measured, rep_c.epsilon_measured) > tol.dephasing_residual:
        raise CheckFailure("a constructed channel is not exactly dephasing")
    bound_q = bounds_mod.quantum_lower_bound(d, eps)
    bound_c = bounds_mod.classical_lower_bound(d, eps)
    budget = bounds_mod.entropy_budget_check(dephaser.dephasing_ops(d), tol)
    if not budget.triangle_satisfied(tol.bound_slack):
        raise CheckFailure("entropy budget triangle inequality violated")
    meta = reporting.metadata("bounds", args.seed, tol, args.deterministic)
    payload = {
        "epsilon": eps,
        "quantum": rep_q.to_json_dict(bound_q, tol.bound_slack),
        "classical": rep_c.to_json_dict(bound_c, tol.bound_slack),
        "entropy_budget": {
            "joint": budget.joint_entropy,
            "output": budget.output_entropy,
            "ancilla": budget.ancilla_entropy,
            "saturated": budget.saturated(tol.bound_slack),
        },
    }
    reporting.write_json(_outpath(args, "bounds.json"), meta, payload)


_COMMANDS = {
    "dephase": cmd_dephase,
    "classical-dephase": cmd_classical_dephase,
    "transition": cmd_transition,
    "chain": cmd_chain,
    "machine": cmd_machine,
    "recur": cmd_recur,
    "fig3": cmd_fig3,
    "pqc": cmd_pqc,
    "expander": cmd_expander,
    "bounds": cmd_bounds,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = _apply_config(parser, sys.argv[1:] if argv is None else list(argv))
    try:
        tol = _tol(args)
    except (OSError, ValueError) as exc:
        print(f"error: bad tolerance file: {exc}", file=sys.stderr)
        return 2
    try:
        _COMMANDS[args.command](args, tol)
    except (CheckFailure, InvariantViolation, pqc.IntegrityError) as exc:
        # a tightened --tol-file can make an internal invariant fail
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (PreconditionError, DimensionError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
