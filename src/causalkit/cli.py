"""Command-line front end.

Every number printed here is produced by a library call; the CLI only
formats. Exit codes: 0 when the requested check or reproduction passes, 1
when a computed check fails, 2 for usage errors. ``CAUSALKIT_TOL`` overrides
the default absolute tolerance. ``--json`` switches any subcommand from the
human-readable text to a machine-readable JSON document. ``manifest`` checks
every claim in :data:`causalkit.claims.CLAIMS`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Callable

import numpy as np

from . import classical, duality, games, processes, sampling, tensor
from .claims import CLAIMS, DRB_STRATEGIES, GYNI_STRATEGIES, PROCESS_BUILDERS, ReproductionRecord
from .games import BellCode
from .processes import ProcessMatrix
from .tensor import DEFAULT_TOL, LabeledOperator, WireLabel, _check_tol


def _fraction_dict(fr: Fraction) -> dict:
    return {
        "numerator": fr.numerator,
        "denominator": fr.denominator,
        "exact": f"{fr.numerator}/{fr.denominator}",
        "decimal": float(fr),
    }


def _load_process_arg(args: argparse.Namespace, parser: argparse.ArgumentParser) -> tuple[str, ProcessMatrix]:
    if args.process:
        return args.process, PROCESS_BUILDERS[args.process]()
    path = args.process_file
    if not path:
        parser.error("provide a process file or --process <name>")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            proc = processes.load_process(fh.read())
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        parser.error(f"cannot load process file {path!r}: {reason}")
    return path, proc


def _write(parser: argparse.ArgumentParser, path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"cannot write {path!r}: {exc.strerror or exc}")


def _print(text: str) -> None:
    """Write to stdout. If its reader has gone, stdout turns to devnull (so the
    flush at exit stays silent) and the command keeps its exit code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _json(payload: dict) -> str:
    """``payload`` as strict JSON, indented: each nan or infinite float in it, however nested, is
    null. A float survives the round trip through its repr to the bit."""
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2) + "\n"


def _emit(args: argparse.Namespace, payload: dict, code: int = 0, text: list[str] | None = None) -> int:
    """Print a command's payload and return its exit code.

    ``--json`` prints the payload as strict JSON (:func:`_json`); otherwise
    ``text`` is printed, by default one ``key: value`` line per entry, nested
    dicts indented below their key.
    """
    if args.json:
        _print(_json(payload))
        return code
    if text is None:
        text = []
        for key, value in payload.items():
            if isinstance(value, dict):
                text.append(f"{key}:")
                text.extend(f"  {k}: {v}" for k, v in value.items())
            else:
                text.append(f"{key}: {json.dumps(value) if isinstance(value, list) else value}")
    _print("\n".join(text) + "\n")
    return code


# ---------------------------------------------------------------------------
# Subcommands

def cmd_validate(args, parser, tol) -> int:
    name, proc = _load_process_arg(args, parser)
    report = processes.validate_process(proc, tol)
    payload = {
        "process": name,
        "psd_ok": report.psd_ok,
        "min_eig": report.min_eig,
        "hermiticity": report.hermiticity,
        "residuals": dict(report.constraint_residuals),
        "scale": report.scale,
        "relative_residuals": dict(report.relative_residuals),
        "tolerance": report.tolerance,
        "valid": report.valid,
    }
    return _emit(args, payload, 0 if report.valid else 1)


def cmd_ppt(args, parser, tol) -> int:
    name, proc = _load_process_arg(args, parser)
    parties = [p.name for p in proc.parties]
    if len(parties) != 2:
        parser.error(f"process file {name!r} is not two-party: parties {parties}")
    cut = parties[1] if args.cut is None else args.cut  # both cuts share one spectrum
    if cut not in parties:
        parser.error(f"unknown cut {cut!r}; choose a party from {parties}")
    if proc.unassigned_wires:
        parser.error(f"{name!r}: wires {list(proc.unassigned_wires)} belong to no party; the cut is ambiguous")
    ok, min_eig = processes.is_ppt_cut(proc, cut, tol)
    payload = {
        "process": name,
        "cut": cut,
        "ppt": ok,
        "min_eigenvalue": min_eig,
        "hermiticity": proc.hermiticity,
        "tolerance": tol,
    }
    return _emit(args, payload, 0 if ok else 1)


def cmd_game(args, parser, tol) -> int:
    """Per-input terms and value of a named strategy for ``gyni`` or ``drb``."""
    registry, symbol = (GYNI_STRATEGIES, "i") if args.game == "gyni" else (DRB_STRATEGIES, "x")
    terms = games.game_terms(registry[args.strategy]())
    payload = {
        "game": args.game,
        "process_name": args.strategy,
        "value": float(sum(terms.values()) / len(terms)),
        "terms": {f"{symbol}1={u},{symbol}2={v}": p for (u, v), p in sorted(terms.items())},
    }
    return _emit(args, payload)


def cmd_duality(args, parser, tol) -> int:
    gyni = args.direction == "gyni2dr"
    if args.seed is not None:
        dim = 2 if args.dim is None else args.dim
        if dim < 2:
            parser.error(f"--dim must be at least 2, got {dim}")
        if args.seed < 0:
            parser.error(f"--seed must be non-negative, got {args.seed}")
        sample = sampling.random_gyni_strategy if gyni else sampling.random_dr_strategy
        strategy = sample(np.random.default_rng(args.seed), dim)
        source_name = f"random(seed={args.seed}, d={dim})"
    else:
        if args.dim is not None:
            parser.error("--dim sets the dimension of a --seed strategy and needs --seed")
        registry = GYNI_STRATEGIES if gyni else DRB_STRATEGIES
        source_name = args.process or ("cyril" if gyni else "pauli-y")
        if source_name not in registry:
            parser.error(
                f"unknown strategy {source_name!r} for {args.direction}; choose from {sorted(registry)}"
            )
        strategy = registry[source_name]()
    cert = duality.check_duality(strategy, args.direction, tol)
    payload = dict(cert.to_dict(), strategy=source_name)
    if args.emit_certificate:
        _write(parser, args.emit_certificate, _json(payload))
    return _emit(args, payload, 0 if cert.ok else 1)


# (variant, strategy) -> the exact library call: an accounting record or a bare value.
CLASSICAL_CALLS: dict[tuple[str, str], Callable[[], object]] = {
    ("tdr", "ebw"): classical.tdr_accounting_ebw,
    ("tdr", "definite"): classical.tdr_relay_accounting,
    ("tdr", "none"): classical.tdr_success_no_collab,
    ("ftdr", "ebw"): lambda: classical.ftdr_accounting("ebw"),
    ("ftdr", "definite"): lambda: classical.ftdr_accounting("definite_order"),
}


def cmd_classical(args, parser, tol) -> int:
    options = sorted(strategy for variant, strategy in CLASSICAL_CALLS if variant == args.variant)
    if args.strategy not in options:
        parser.error(f"unknown strategy {args.strategy!r} for {args.variant}; choose from {options}")
    result = CLASSICAL_CALLS[args.variant, args.strategy]()
    # The record's overall value leads, then its other fields in their order.
    fields = {"overall": result} if isinstance(result, Fraction) else asdict(result)
    payload = {"game": args.variant, "strategy": args.strategy, **_fraction_dict(fields.pop("overall"))}
    if (args.variant, args.strategy) == ("tdr", "ebw"):
        payload["logically_consistent"] = classical.is_logically_consistent(classical.ebw_process())
    for key, value in fields.items():
        payload[key] = _fraction_dict(value) if isinstance(value, Fraction) else list(map(_fraction_dict, value))
    return _emit(args, payload)


# cyril, bell:x1,x2[,d] or readout-unitary[:d[:party]]; compiled on first use, not on import.
_DUMP_OBJECT = r"cyril|bell:(-?\d+),(-?\d+)(?:,(-?\d+))?|readout-unitary(?::(-?\d+)(?::(-?\d+))?)?"


def cmd_dump(args, parser, tol) -> int:
    token = args.object
    match = re.fullmatch(_DUMP_OBJECT, token)
    if not match:
        parser.error(f"unknown object {token!r}; choose cyril, bell:x1,x2[,d], readout-unitary[:d[:party]]")
    # An absent field takes its default: d = 2, party 1.
    x1, x2, code_d, d, party = (int(g or default) for g, default in zip(match.groups(), (0, 0, 2, 2, 1)))
    try:
        if token == "cyril":
            text = processes.dump_process(processes.build_cyril())
        elif token.startswith("bell"):
            text = tensor.dump_operator(games.bell_state(BellCode(code_d, x1, x2)))
        else:
            if party not in (1, 2):
                raise ValueError("readout party must be 1 or 2")
            wires = (WireLabel("code", d), WireLabel("fresh", d))
            text = tensor.dump_operator(LabeledOperator(wires, duality.party_readout_unitaries(d)[party - 1]))
    except ValueError as exc:
        parser.error(str(exc))
    if args.out:
        _write(parser, args.out, text)
    else:
        _print(text)
    return 0


# ---------------------------------------------------------------------------
# Manifest

def build_manifest(tol: float = DEFAULT_TOL) -> list[ReproductionRecord]:
    """Recompute every claim in :data:`CLAIMS` and compare against its pinned value."""
    _check_tol(tol)
    return [claim.check(tol) for claim in CLAIMS]


def cmd_manifest(args, parser, tol) -> int:
    records = build_manifest(tol)
    failures = sum(r.status != "pass" for r in records)
    width = max(len(r.claim_id) for r in records)
    table = [
        f"{r.status.upper():4s} {r.claim_id:<{width}s} expected {r.expected} | got {r.computed}"
        for r in records
    ]
    table.append(f"{len(records) - failures}/{len(records)} reproduction records passed")
    payload = {
        "records": [asdict(r) for r in records],
        "total": len(records),
        "failures": failures,
        "status": "pass" if not failures else "fail",
    }
    return _emit(args, payload, 0 if not failures else 1, table)


# ---------------------------------------------------------------------------
# Parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalkit",
        description="Process matrices, causal order, and retrieval games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit JSON instead of text")
    process_arg = argparse.ArgumentParser(add_help=False)
    source = process_arg.add_mutually_exclusive_group()  # a dump file or a built-in, not both
    source.add_argument("process_file", nargs="?", help="path to a process dump")
    source.add_argument("--process", choices=sorted(PROCESS_BUILDERS), help="built-in process")

    def command(name, func, help_text, *parents, **defaults) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, parents=[*parents, json_flag])
        p.set_defaults(func=func, parser=p, **defaults)
        return p

    command("validate", cmd_validate, "check process validity constraints", process_arg)
    p = command("ppt", cmd_ppt, "partial-transpose test across the party cut", process_arg)
    p.add_argument("--cut", help="party whose wires are transposed (default: second party, B for built-ins)")

    p = command("gyni", cmd_game, "evaluate the mutual input-guessing game", game="gyni")
    p.add_argument("--process", dest="strategy", default="cyril", choices=sorted(GYNI_STRATEGIES))
    p = command("drb", cmd_game, "evaluate the coded-state retrieval game", game="dr")
    p.add_argument("--strategy", default="pauli-y", choices=sorted(DRB_STRATEGIES))

    p = command("duality", cmd_duality, "translate a strategy between the games and certify the value")
    p.add_argument("--direction", required=True, choices=duality.DIRECTION_TOKENS)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--process", help="built-in strategy name for the source game")
    source.add_argument("--seed", type=int, help="use a seeded random strategy instead")
    p.add_argument("--dim", type=int, help="local dimension for --seed (default 2)")
    p.add_argument("--emit-certificate", metavar="PATH", help="write the certificate JSON here")

    p = command("classical", cmd_classical, "exact classical tripartite values")
    p.add_argument("variant", choices=["tdr", "ftdr"])
    p.add_argument("--strategy", required=True, help="tdr: ebw|definite|none; ftdr: ebw|definite")
    p.add_argument("--exact", action="store_true", help="print the exact rational (always included)")

    p = sub.add_parser("dump", help="print a built-in object in the dump format")
    p.add_argument("--object", required=True, help="cyril | bell:x1,x2[,d] | readout-unitary[:d[:party]]")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_dump, parser=p)

    command("manifest", cmd_manifest, "recompute and check every headline claim")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    tol_env = os.environ.get("CAUSALKIT_TOL")
    try:
        tol = float(tol_env) if tol_env else DEFAULT_TOL
        _check_tol(tol)
    except ValueError as exc:  # not a float, or not a tolerance the library takes
        parser.error(f"CAUSALKIT_TOL={tol_env!r}: {exc}")
    try:
        return args.func(args, args.parser, tol)
    except MemoryError as exc:  # a dimension too large to allocate is a usage error
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
