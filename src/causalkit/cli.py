"""Command-line front end.

Every number printed here is produced by a library call; the CLI only
formats. Exit codes: 0 when the requested check or reproduction passes, 1
when a computed check fails, 2 for usage errors. ``CAUSALKIT_TOL`` overrides
the default absolute tolerance. ``--json`` switches any subcommand from the
human-readable text to a machine-readable JSON document.

The manifest is one loop over :data:`CLAIMS`, the table of headline claims
that the acceptance tests check as well.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import classical, duality, games, processes, sampling, tensor
from .games import CAUSAL_GYNI_BOUND, CONSTANT_GUESS_VALUE, CYRIL_GYNI_VALUE, LOCC_RETRIEVAL_BOUND
from .games import BellCode, GameStrategy
from .instruments import choi_of_unitary
from .processes import ProcessMatrix
from .tensor import DEFAULT_TOL, LabeledOperator, WireLabel

MANIFEST_SEED = 20260815


@dataclass(frozen=True)
class ReproductionRecord:
    claim_id: str
    command: str
    expected: str
    computed: str
    tolerance: float
    status: str  # "pass" | "fail"

    def to_dict(self) -> dict:
        return asdict(self)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _fraction_dict(fr: Fraction) -> dict:
    return {
        "numerator": fr.numerator,
        "denominator": fr.denominator,
        "exact": f"{fr.numerator}/{fr.denominator}",
        "decimal": float(fr),
    }


# ---------------------------------------------------------------------------
# Built-in objects

def _bell_pair_outputs_process() -> ProcessMatrix:
    """The identity channel's Choi operator on both inputs and on both outputs; fails validity."""
    (ai, ao), (bi, bo) = processes.lab_wires(2)
    return processes.party_process(choi_of_unitary(np.eye(2), ai, bi), choi_of_unitary(np.eye(2), ao, bo))


PROCESS_BUILDERS: dict[str, Callable[[], ProcessMatrix]] = {
    "cyril": processes.build_cyril,
    "mixed": processes.maximally_mixed_process,
    "shared-bell": lambda: processes.shared_state_process(games.bell_state(BellCode(2, 0, 0)).matrix),
    "bell-pair-outputs": _bell_pair_outputs_process,
}

GYNI_STRATEGIES: dict[str, Callable[[], GameStrategy]] = {
    "cyril": games.cyril_gyni_strategy,
    "relay": games.relay_gyni_strategy,
    "constant": games.constant_output_gyni_strategy,
}

DRB_STRATEGIES: dict[str, Callable[[], GameStrategy]] = {
    "pauli-y": games.pauli_y_baseline_strategy,
    "cyril-dual": lambda: duality.gyni_to_dr(games.cyril_gyni_strategy()),
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
    if len(proc.parties) != 2:
        parser.error(f"process file {path!r} is not two-party: parties {[p.name for p in proc.parties]}")
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


def _emit(args: argparse.Namespace, payload: dict, code: int = 0, text: list[str] | None = None) -> int:
    """Print a command's payload and return its exit code.

    ``--json`` prints the payload as JSON; otherwise ``text`` is printed, by
    default one ``key: value`` line per entry, nested dicts indented below
    their key.
    """
    if args.json:
        _print(json.dumps(payload, indent=2) + "\n")
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
    if args.game == "gyni":
        strategy = GYNI_STRATEGIES[args.strategy]()
        terms, symbol = games.gyni_terms(strategy), "i"
    else:
        strategy = DRB_STRATEGIES[args.strategy]()
        terms, symbol = games.dr_terms(strategy), "x"
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
        _write(parser, args.emit_certificate, json.dumps(payload, indent=2) + "\n")
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

@dataclass(frozen=True)
class Claim:
    """One headline claim: the command that reproduces it, what it states,
    and how to recompute it.

    ``expected`` may name the tolerance as ``{tol:g}``. ``tolerance`` is a
    fixed tolerance, or None for the run's. ``evaluate(tol)`` returns
    (computed text, passed); if it raises, the row fails and its computed
    text names the exception. Rows look library functions up by name when
    they run, so nothing is computed on import.
    """

    claim_id: str
    command: str
    expected: str
    tolerance: float | None
    evaluate: Callable[[float], tuple[str, bool]]

    def check(self, tol: float = DEFAULT_TOL) -> ReproductionRecord:
        tol = tol if self.tolerance is None else self.tolerance
        try:
            computed, passed = self.evaluate(tol)
        except Exception as exc:
            computed, passed = f"error: {type(exc).__name__}: {exc}", False
        expected = self.expected.format(tol=tol)
        status = "pass" if passed else "fail"
        return ReproductionRecord(self.claim_id, self.command, expected, computed, tol, status)


def _near(value: float, target: float, tol: float) -> tuple[str, bool]:
    """A computed value within ``tol`` of its closed form."""
    return _fmt(value), abs(value - target) <= tol


def _at_most(residual: float, bound: float) -> tuple[str, bool]:
    """A residual or deviation at or below its bound."""
    return _fmt(residual), residual <= bound


def _holds(text: str, *conditions: bool) -> tuple[str, bool]:
    """An exact claim: every condition, a Fraction equality or a predicate, holds."""
    return text, all(conditions)


def _join(values) -> str:
    return ", ".join(map(str, values))


def _cyril_valid(tol):
    report = processes.validate_process(processes.build_cyril(), tol)
    worst = max(r for _, r in report.constraint_residuals)
    return _holds(f"max residual {_fmt(worst)}, min eig {_fmt(report.min_eig)}", report.valid)


def _cyril_unordered(tol):
    cyril = processes.build_cyril()
    orders = {o: processes.check_order(cyril, o, tol).compatible for o in processes.ORDER_TOKENS}
    return _holds(", ".join(f"{k}: {v}" for k, v in orders.items()), not any(orders.values()))


def _cyril_ppt(tol):
    ok, eig = processes.is_ppt_cut(processes.build_cyril(), "B", tol)
    return _holds(f"min transposed eig {_fmt(eig)}", ok)


def _worst_round_trip(d: int, rounds: int, tol: float) -> float:
    """Largest certificate deviation over seeded random strategies, both directions."""
    rng = np.random.default_rng(MANIFEST_SEED + d)
    worst = 0.0
    for _ in range(rounds):
        worst = max(
            worst,
            duality.check_duality(sampling.random_gyni_strategy(rng, d), "gyni2dr", tol).deviation,
            duality.check_duality(sampling.random_dr_strategy(rng, d), "dr2gyni", tol).deviation,
        )
    return worst


def _shared_bell_npt(tol):
    shared = PROCESS_BUILDERS["shared-bell"]()
    valid = processes.validate_process(shared, tol).valid
    ns = processes.check_order(shared, "no-signaling", tol).compatible
    ppt, eig = processes.is_ppt_cut(shared, "B", tol)
    text = f"valid {valid}, no-signaling {ns}, min eig {_fmt(eig)}"
    return _holds(text, valid, ns, not ppt, abs(eig + 0.5) <= tol)


def _tdr_ebw(tol):
    acc = classical.tdr_accounting_ebw()
    text = f"{acc.overall} (per input {acc.per_input_min}..{acc.per_input_max})"
    return _holds(text, acc.overall == acc.per_input_min == acc.per_input_max == Fraction(27, 32))


def _tdr_branches(tol):
    acc = classical.tdr_accounting_ebw()
    text = f"weights {_join(acc.branch_weight)}; success {_join(acc.branch_success)}"
    return _holds(
        text, acc.branch_weight[0] == Fraction(27, 32), acc.branch_success[0] == 1, acc.branch_success[1] == 0
    )


def _ebw_consistent(tol):
    consistent = classical.is_logically_consistent(classical.ebw_process())
    return _holds("logically consistent" if consistent else "inconsistent", consistent)


def _tdr_no_collab(tol):
    value = classical.tdr_success_no_collab()
    return _holds(str(value), value == Fraction(27, 64))


def _tdr_relay(tol):
    rel = classical.tdr_relay_accounting()
    text = f"{rel.overall} (players {_join(rel.per_player)})"
    return _holds(text, rel.overall == Fraction(3, 4), rel.per_player == (Fraction(3, 4), 1, 1))


def _ftdr(strategy: str, overall: Fraction, rounds: tuple[Fraction, Fraction]) -> tuple[str, bool]:
    acc = classical.ftdr_accounting(strategy)
    text = f"{acc.overall} (rounds {_join(acc.round_success)})"
    return _holds(text, acc.overall == overall, acc.round_success == rounds)


def _mutant_detected(tol):
    mutant = games.eval_gyni(games._resend_same_mutant())
    gap = abs(mutant - CYRIL_GYNI_VALUE)
    return _holds(f"mutant {_fmt(mutant)}, gap {_fmt(gap)}", gap > tol)


def _hiding_defect() -> float:
    """Largest entry of |marginal - I/2| over the four qubit codes and both wires."""
    pairs = games.coded_pairs(2, ("A", "B"))
    marginals = [tensor.partial_trace(pairs, {w.name}).matrix for w in pairs.wires]
    return float(np.max(np.abs(np.array(marginals) - np.eye(2) / 2)))


_CYRIL_VALUE_TEXT = f"5/16*(1+1/sqrt(2)) = {_fmt(CYRIL_GYNI_VALUE)}"

CLAIMS: tuple[Claim, ...] = (
    Claim("gyni-cyril-value", "causalkit gyni --process cyril", _CYRIL_VALUE_TEXT, None,
          lambda tol: _near(games.eval_gyni(games.cyril_gyni_strategy()), CYRIL_GYNI_VALUE, tol)),
    Claim("process-cyril-valid", "causalkit validate --process cyril", "all residuals <= {tol:g}", None,
          _cyril_valid),
    Claim("process-cyril-unordered", "causalkit validate --process cyril",
          "incompatible with A<B, B<A, and no-signaling", None, _cyril_unordered),
    Claim("process-cyril-ppt", "causalkit ppt --process cyril --cut B",
          "PPT across the party cut (min eig >= -{tol:g})", None, _cyril_ppt),
    Claim("process-cyril-separable", "causalkit validate --process cyril",
          "eight-product-term rebuild residual <= {tol:g}", 1e-12,
          lambda tol: _at_most(processes.verify_cyril_separable_decomposition(), tol)),
    Claim("gyni-relay-value", "causalkit gyni --process relay", _fmt(CAUSAL_GYNI_BOUND), None,
          lambda tol: _near(games.eval_gyni(GYNI_STRATEGIES["relay"]()), CAUSAL_GYNI_BOUND, tol)),
    Claim("gyni-constant-value", "causalkit gyni --process constant", _fmt(CONSTANT_GUESS_VALUE), None,
          lambda tol: _near(games.eval_gyni(GYNI_STRATEGIES["constant"]()), CONSTANT_GUESS_VALUE, tol)),
    Claim("drb-pauli-y-value", "causalkit drb --strategy pauli-y", _fmt(LOCC_RETRIEVAL_BOUND), None,
          lambda tol: _near(games.eval_dr(games.pauli_y_baseline_strategy()), LOCC_RETRIEVAL_BOUND, tol)),
    Claim("drb-cyril-dual-value", "causalkit drb --strategy cyril-dual", _CYRIL_VALUE_TEXT, None,
          lambda tol: _near(games.eval_dr(DRB_STRATEGIES["cyril-dual"]()), CYRIL_GYNI_VALUE, tol)),
    Claim("duality-gyni2dr-cyril", "causalkit duality --direction gyni2dr --process cyril",
          "deviation <= {tol:g}", None,
          lambda tol: _at_most(
              duality.check_duality(games.cyril_gyni_strategy(), "gyni2dr", tol).deviation, tol)),
    Claim("duality-dr2gyni-pauli-y", "causalkit duality --direction dr2gyni --process pauli-y",
          "deviation <= {tol:g}", None,
          lambda tol: _at_most(
              duality.check_duality(games.pauli_y_baseline_strategy(), "dr2gyni", tol).deviation, tol)),
    Claim("duality-random-d2", f"causalkit duality --direction gyni2dr --seed {MANIFEST_SEED + 2} --dim 2",
          "max deviation <= {tol:g} over 6 seeded round trips", None,
          lambda tol: _at_most(_worst_round_trip(2, 3, tol), tol)),
    Claim("duality-random-d3", f"causalkit duality --direction gyni2dr --seed {MANIFEST_SEED + 3} --dim 3",
          "max deviation <= {tol:g} over 4 seeded round trips", None,
          lambda tol: _at_most(_worst_round_trip(3, 2, tol), tol)),
    Claim("readout-correlation", "causalkit dump --object readout-unitary:3",
          "off-rule probability mass <= {tol:g} at d=2 and d=3", None,
          lambda tol: _at_most(max(duality.readout_correlation_residual(d) for d in (2, 3)), tol)),
    Claim("process-shared-bell-npt", "causalkit ppt --process shared-bell --cut B",
          "valid no-signaling process with min transposed eig -0.5", None, _shared_bell_npt),
    Claim("classical-tdr-ebw", "causalkit classical tdr --strategy ebw --exact", "27/32", 0.0, _tdr_ebw),
    Claim("classical-tdr-branches", "causalkit classical tdr --strategy ebw --exact",
          "majority-0 weight 27/32 with conditional success 1; majority-1 success 0", 0.0, _tdr_branches),
    Claim("classical-ebw-consistent", "causalkit classical tdr --strategy ebw --exact",
          "each of the 64 local-function choices has exactly one fixed point", 0.0, _ebw_consistent),
    Claim("classical-tdr-no-collab", "causalkit classical tdr --strategy none --exact", "27/64", 0.0,
          _tdr_no_collab),
    Claim("classical-tdr-relay", "causalkit classical tdr --strategy definite --exact",
          "3/4 (players: 3/4, 1, 1)", 0.0, _tdr_relay),
    Claim("classical-ftdr-ebw", "causalkit classical ftdr --strategy ebw --exact",
          "27/32 with both rounds 27/32", 0.0,
          lambda tol: _ftdr("ebw", Fraction(27, 32), (Fraction(27, 32), Fraction(27, 32)))),
    Claim("classical-ftdr-definite", "causalkit classical ftdr --strategy definite --exact",
          "21/32 with rounds 3/4 and 9/16", 0.0,
          lambda tol: _ftdr("definite_order", Fraction(21, 32), (Fraction(3, 4), Fraction(9, 16)))),
    Claim("mutation-resend-same-detected", "causalkit gyni --process cyril",
          "re-preparing the measured bit unchanged shifts the value by > {tol:g}", 0.05, _mutant_detected),
    Claim("codes-hide-marginals", "causalkit dump --object bell:1,1",
          "single-wire marginals of all four qubit codes equal I/2 within {tol:g}", 1e-12,
          lambda tol: _at_most(_hiding_defect(), tol)),
)


def build_manifest(tol: float = DEFAULT_TOL) -> list[ReproductionRecord]:
    """Recompute every claim in :data:`CLAIMS` and compare against its pinned value."""
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
        "records": [r.to_dict() for r in records],
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
    process_arg.add_argument("process_file", nargs="?", help="path to a process dump")
    process_arg.add_argument("--process", choices=sorted(PROCESS_BUILDERS), help="built-in process")

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
    except ValueError:
        parser.error(f"CAUSALKIT_TOL must be a float, got {tol_env!r}")
    if not (np.isfinite(tol) and tol > 0):
        parser.error(f"CAUSALKIT_TOL must be finite and positive, got {tol_env!r}")
    return args.func(args, args.parser, tol)


if __name__ == "__main__":
    sys.exit(main())
