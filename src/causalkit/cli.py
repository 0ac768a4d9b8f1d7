"""Command-line front end.

Every number printed here is produced by a library call; the CLI only
formats. Exit codes: 0 when the requested check or reproduction passes, 1
when a computed check fails, 2 for usage errors. ``CAUSALKIT_TOL`` overrides
the default absolute tolerance. ``--json`` switches any subcommand from the
human-readable table to a machine-readable JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .classical import (
    ebw_process,
    ftdr_accounting,
    is_logically_consistent,
    tdr_accounting_ebw,
    tdr_relay_accounting,
    tdr_success_no_collab,
)
from .duality import (
    DualityCertificate,
    DualityDrift,
    check_duality,
    party_readout_unitaries,
    readout_correlation_residual,
)
from .games import (
    CYRIL_GYNI_VALUE,
    BellCode,
    bell_encoder,
    bell_state,
    constant_output_gyni_strategy,
    cyril_gyni_strategy,
    dr_terms,
    eval_dr,
    eval_gyni,
    gyni_terms,
    pauli_y_baseline_strategy,
    relay_gyni_strategy,
)
from .games import GameStrategy, PartyArm
from .instruments import identity_channel_instrument, measure_prepare_instrument
from .processes import (
    ProcessMatrix,
    build_cyril,
    check_order,
    dump_process,
    is_ppt_cut,
    load_process,
    maximally_mixed_process,
    shared_state_process,
    validate_process,
    verify_cyril_separable_decomposition,
)
from .sampling import random_dr_strategy, random_gyni_strategy
from .tensor import DEFAULT_TOL, LabeledOperator, WireLabel, dump_operator, partial_trace

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

def _phi_plus_matrix() -> np.ndarray:
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    return np.outer(vec, vec.conj())


def _bell_pair_outputs_process() -> ProcessMatrix:
    """Trace-normalized coded pairs on inputs and outputs; fails validity."""
    from .processes import PartySlot
    from .tensor import kron, permute_wires

    inputs = bell_state(BellCode(2, 0, 0), ("A_I", "B_I"))
    outputs = bell_state(BellCode(2, 0, 0), ("A_O", "B_O"))
    op = permute_wires(kron(inputs, outputs), ["A_I", "A_O", "B_I", "B_O"])
    op = LabeledOperator(op.wires, 4 * op.matrix)
    return ProcessMatrix(op, (PartySlot("A", "A_I", "A_O"), PartySlot("B", "B_I", "B_O")))


PROCESS_BUILDERS: dict[str, Callable[[], ProcessMatrix]] = {
    "cyril": build_cyril,
    "mixed": maximally_mixed_process,
    "shared-bell": lambda: shared_state_process(_phi_plus_matrix()),
    "bell-pair-outputs": _bell_pair_outputs_process,
}

GYNI_STRATEGIES: dict[str, Callable[[], GameStrategy]] = {
    "cyril": cyril_gyni_strategy,
    "relay": relay_gyni_strategy,
    "constant": constant_output_gyni_strategy,
}


def _cyril_dual_strategy() -> GameStrategy:
    from .duality import gyni_to_dr

    return gyni_to_dr(cyril_gyni_strategy())


DRB_STRATEGIES: dict[str, Callable[[], GameStrategy]] = {
    "pauli-y": pauli_y_baseline_strategy,
    "cyril-dual": _cyril_dual_strategy,
}


def _resend_same_mutant() -> GameStrategy:
    """Deliberately broken guessing strategy: re-prepares the measured bit
    unchanged. Kept for the manifest's mutation-sensitivity record."""
    e0, e1 = np.eye(2, dtype=complex)
    arms = []
    for name in ("A", "B"):
        w_in, w_out = WireLabel(f"{name}_I", 2), WireLabel(f"{name}_O", 2)
        forward = identity_channel_instrument(w_in, w_out, forced_outcome=1, n_outcomes=2)
        same = measure_prepare_instrument([e0, e1], [e0, e1], w_in, w_out)
        arms.append(PartyArm(name, (forward, same)))
    return GameStrategy(build_cyril(), tuple(arms), "gyni")


def _load_process_arg(args: argparse.Namespace, parser: argparse.ArgumentParser) -> tuple[str, ProcessMatrix]:
    if getattr(args, "process", None):
        token = args.process
        if token not in PROCESS_BUILDERS:
            parser.error(
                f"unknown process {token!r}; choose from {sorted(PROCESS_BUILDERS)}"
            )
        return token, PROCESS_BUILDERS[token]()
    path = getattr(args, "process_file", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return path, load_process(fh.read())
        except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
            parser.error(f"cannot load process file {path!r}: {reason}")
    parser.error("provide a process file or --process <name>")
    raise AssertionError  # unreachable


# ---------------------------------------------------------------------------
# Subcommands

def cmd_validate(args, parser, tol) -> int:
    name, proc = _load_process_arg(args, parser)
    report = validate_process(proc, tol)
    payload = {
        "process": name,
        "psd_ok": report.psd_ok,
        "min_eig": report.min_eig,
        "hermiticity": report.hermiticity,
        "residuals": {k: v for k, v in report.constraint_residuals},
        "tolerance": report.tolerance,
        "valid": report.valid,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"process : {name}")
        print(f"psd     : {report.psd_ok} (min eig {_fmt(report.min_eig)})")
        for k, v in report.constraint_residuals:
            print(f"residual: {k:<28s} {_fmt(v)}")
        print(f"valid   : {report.valid} (tol {report.tolerance:g})")
    return 0 if report.valid else 1


def cmd_ppt(args, parser, tol) -> int:
    name, proc = _load_process_arg(args, parser)
    parties = [p.name for p in proc.parties]
    if args.cut not in parties:
        parser.error(f"unknown cut {args.cut!r}; choose a party from {parties}")
    ok, min_eig = is_ppt_cut(proc, args.cut, tol)
    payload = {
        "process": name,
        "cut": args.cut,
        "ppt": ok,
        "min_eigenvalue": min_eig,
        "tolerance": tol,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"process: {name}  cut: {args.cut}")
        print(f"ppt    : {ok} (min transposed eig {_fmt(min_eig)})")
    return 0 if ok else 1


def cmd_gyni(args, parser, tol) -> int:
    if args.process not in GYNI_STRATEGIES:
        parser.error(f"unknown strategy {args.process!r}; choose from {sorted(GYNI_STRATEGIES)}")
    strategy = GYNI_STRATEGIES[args.process]()
    terms = gyni_terms(strategy)
    value = float(sum(terms.values()) / len(terms))
    payload = {
        "game": "gyni",
        "process_name": args.process,
        "value": value,
        "terms": {f"i1={i1},i2={i2}": p for (i1, i2), p in sorted(terms.items())},
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"game gyni, strategy {args.process}")
        for key, p in sorted(payload["terms"].items()):
            print(f"  {key}: {_fmt(p)}")
        print(f"value: {_fmt(value)}")
    return 0


def cmd_drb(args, parser, tol) -> int:
    if args.strategy not in DRB_STRATEGIES:
        parser.error(f"unknown strategy {args.strategy!r}; choose from {sorted(DRB_STRATEGIES)}")
    strategy = DRB_STRATEGIES[args.strategy]()
    encoder = bell_encoder(2, tuple(strategy.state_wires))
    terms = dr_terms(strategy, encoder, 2)
    value = float(sum(terms.values()) / len(terms))
    payload = {
        "game": "dr",
        "process_name": args.strategy,
        "value": value,
        "terms": {f"x1={x1},x2={x2}": p for (x1, x2), p in sorted(terms.items())},
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"game dr, strategy {args.strategy}")
        for key, p in sorted(payload["terms"].items()):
            print(f"  {key}: {_fmt(p)}")
        print(f"value: {_fmt(value)}")
    return 0


def cmd_duality(args, parser, tol) -> int:
    if args.dim < 2:
        parser.error(f"--dim must be at least 2, got {args.dim}")
    if args.seed is not None:
        rng = np.random.default_rng(args.seed)
        if args.direction == "gyni2dr":
            strategy = random_gyni_strategy(rng, args.dim)
        else:
            strategy = random_dr_strategy(rng, args.dim)
        source_name = f"random(seed={args.seed}, d={args.dim})"
    else:
        registry = GYNI_STRATEGIES if args.direction == "gyni2dr" else DRB_STRATEGIES
        token = args.process or ("cyril" if args.direction == "gyni2dr" else "pauli-y")
        if token not in registry:
            parser.error(f"unknown strategy {token!r} for {args.direction}; choose from {sorted(registry)}")
        strategy = registry[token]()
        source_name = token
    try:
        cert = check_duality(strategy, args.direction, tol)
        failure = None
    except ValueError as exc:
        failure = str(exc)
        cert = None
    if cert is None:
        payload = {"direction": args.direction, "strategy": source_name, "error": failure}
        print(json.dumps(payload, indent=2) if args.json else f"FAIL: {failure}")
        return 1
    payload = dict(cert.to_dict(), strategy=source_name)
    if args.emit_certificate:
        with open(args.emit_certificate, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"direction   : {cert.direction} (d={cert.d}, strategy {source_name})")
        print(f"source value: {_fmt(cert.source_value)}")
        print(f"target value: {_fmt(cert.target_value)}")
        print(f"deviation   : {_fmt(cert.deviation)} (tol {cert.tolerance:g}) -> {payload['status']}")
    return 0


def cmd_classical(args, parser, tol) -> int:
    if args.variant == "tdr":
        options = {"ebw", "definite", "none"}
    else:
        options = {"ebw", "definite"}
    if args.strategy not in options:
        parser.error(f"unknown strategy {args.strategy!r} for {args.variant}; choose from {sorted(options)}")
    extras: dict = {}
    if args.variant == "tdr":
        if args.strategy == "ebw":
            acc = tdr_accounting_ebw()
            value = acc.overall
            extras = {
                "logically_consistent": is_logically_consistent(ebw_process()),
                "per_input_min": _fraction_dict(acc.per_input_min),
                "per_input_max": _fraction_dict(acc.per_input_max),
                "branch_weight": [_fraction_dict(f) for f in acc.branch_weight],
                "branch_success": [_fraction_dict(f) for f in acc.branch_success],
            }
        elif args.strategy == "definite":
            rel = tdr_relay_accounting()
            value = rel.overall
            extras = {"per_player": [_fraction_dict(f) for f in rel.per_player]}
        else:
            value = tdr_success_no_collab()
    else:
        acc = ftdr_accounting("ebw" if args.strategy == "ebw" else "definite_order")
        value = acc.overall
        extras = {"round_success": [_fraction_dict(f) for f in acc.round_success]}
    payload = {
        "game": args.variant,
        "strategy": args.strategy,
        **_fraction_dict(value),
        **extras,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"game {args.variant}, strategy {args.strategy}")
        print(f"value: {payload['exact']} = {payload['decimal']:.17g}")
        for key, sub in extras.items():
            print(f"  {key}: {json.dumps(sub)}")
    return 0


def _dump_readout(spec_parts: list[str]) -> str:
    d = int(spec_parts[1]) if len(spec_parts) > 1 else 2
    party = int(spec_parts[2]) if len(spec_parts) > 2 else 1
    if party not in (1, 2):
        raise ValueError("readout party must be 1 or 2")
    matrix = party_readout_unitaries(d)[party - 1]
    wires = (WireLabel("code", d), WireLabel("fresh", d))
    return dump_operator(LabeledOperator(wires, matrix))


def cmd_dump(args, parser, tol) -> int:
    token = args.object
    parts = token.split(":")
    try:
        if parts[0] == "cyril":
            text = dump_process(build_cyril())
        elif parts[0] == "bell":
            if len(parts) != 2:
                raise ValueError("bell object syntax: bell:x1,x2[,d]")
            nums = [int(p) for p in parts[1].split(",")]
            if len(nums) == 2:
                code = BellCode(2, nums[0], nums[1])
            elif len(nums) == 3:
                code = BellCode(nums[2], nums[0], nums[1])
            else:
                raise ValueError("bell object syntax: bell:x1,x2[,d]")
            text = dump_operator(bell_state(code))
        elif parts[0] == "readout-unitary":
            text = _dump_readout(parts)
        else:
            parser.error(
                f"unknown object {token!r}; choose cyril, bell:x1,x2[,d], readout-unitary[:d[:party]]"
            )
    except ValueError as exc:
        parser.error(str(exc))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Manifest

def _record(
    claim_id: str,
    command: str,
    expected: str,
    computed: str,
    tolerance: float,
    passed: bool,
) -> ReproductionRecord:
    return ReproductionRecord(
        claim_id, command, expected, computed, tolerance, "pass" if passed else "fail"
    )


def _certify(strategy: GameStrategy, direction: str, tol: float) -> DualityCertificate:
    """The duality certificate, kept when it fails so the claim reads ``fail``."""
    try:
        return check_duality(strategy, direction, tol)
    except DualityDrift as drift:
        return drift.certificate


def build_manifest(tol: float = DEFAULT_TOL) -> list[ReproductionRecord]:
    """Recompute every headline number and compare against its pinned value."""
    records: list[ReproductionRecord] = []

    v = eval_gyni(cyril_gyni_strategy())
    records.append(
        _record(
            "gyni-cyril-value",
            "causalkit gyni --process cyril",
            f"5/16*(1+1/sqrt(2)) = {_fmt(CYRIL_GYNI_VALUE)}",
            _fmt(v),
            tol,
            abs(v - CYRIL_GYNI_VALUE) <= tol,
        )
    )

    report = validate_process(build_cyril(), tol)
    worst = max(r for _, r in report.constraint_residuals)
    records.append(
        _record(
            "process-cyril-valid",
            "causalkit validate --process cyril",
            f"all residuals <= {tol:g}",
            f"max residual {_fmt(worst)}, min eig {_fmt(report.min_eig)}",
            tol,
            report.valid,
        )
    )

    orders = {o: check_order(build_cyril(), o, tol).compatible for o in ("A<B", "B<A", "no-signaling")}
    records.append(
        _record(
            "process-cyril-unordered",
            "causalkit validate --process cyril",
            "incompatible with A<B, B<A, and no-signaling",
            ", ".join(f"{k}: {v}" for k, v in orders.items()),
            tol,
            not any(orders.values()),
        )
    )

    ppt_ok, ppt_eig = is_ppt_cut(build_cyril(), "B", tol)
    records.append(
        _record(
            "process-cyril-ppt",
            "causalkit ppt --process cyril --cut B",
            f"PPT across the party cut (min eig >= -{tol:g})",
            f"min transposed eig {_fmt(ppt_eig)}",
            tol,
            ppt_ok,
        )
    )

    sep = verify_cyril_separable_decomposition()
    records.append(
        _record(
            "process-cyril-separable",
            "causalkit validate --process cyril",
            "eight-product-term rebuild residual <= 1e-12",
            _fmt(sep),
            1e-12,
            sep <= 1e-12,
        )
    )

    for token, target in (("relay", 0.5), ("constant", 0.25)):
        val = eval_gyni(GYNI_STRATEGIES[token]())
        records.append(
            _record(
                f"gyni-{token}-value",
                f"causalkit gyni --process {token}",
                _fmt(target),
                _fmt(val),
                tol,
                abs(val - target) <= tol,
            )
        )

    base = pauli_y_baseline_strategy()
    val = eval_dr(base, bell_encoder(2, ("A", "B")), 2)
    records.append(
        _record(
            "drb-pauli-y-value",
            "causalkit drb --strategy pauli-y",
            "0.5",
            _fmt(val),
            tol,
            abs(val - 0.5) <= tol,
        )
    )

    dual = DRB_STRATEGIES["cyril-dual"]()
    val = eval_dr(dual, bell_encoder(2, ("A", "B")), 2)
    records.append(
        _record(
            "drb-cyril-dual-value",
            "causalkit drb --strategy cyril-dual",
            f"5/16*(1+1/sqrt(2)) = {_fmt(CYRIL_GYNI_VALUE)}",
            _fmt(val),
            tol,
            abs(val - CYRIL_GYNI_VALUE) <= tol,
        )
    )

    cert = _certify(cyril_gyni_strategy(), "gyni2dr", tol)
    records.append(
        _record(
            "duality-gyni2dr-cyril",
            "causalkit duality --direction gyni2dr --process cyril",
            f"deviation <= {tol:g}",
            _fmt(cert.deviation),
            tol,
            cert.ok,
        )
    )
    cert = _certify(pauli_y_baseline_strategy(), "dr2gyni", tol)
    records.append(
        _record(
            "duality-dr2gyni-pauli-y",
            "causalkit duality --direction dr2gyni --process pauli-y",
            f"deviation <= {tol:g}",
            _fmt(cert.deviation),
            tol,
            cert.ok,
        )
    )

    for d, rounds in ((2, 3), (3, 2)):
        rng = np.random.default_rng(MANIFEST_SEED + d)
        worst_dev = 0.0
        for _ in range(rounds):
            worst_dev = max(
                worst_dev,
                _certify(random_gyni_strategy(rng, d), "gyni2dr", tol).deviation,
                _certify(random_dr_strategy(rng, d), "dr2gyni", tol).deviation,
            )
        records.append(
            _record(
                f"duality-random-d{d}",
                f"causalkit duality --direction gyni2dr --seed {MANIFEST_SEED + d} --dim {d}",
                f"max deviation <= {tol:g} over {2 * rounds} seeded round trips",
                _fmt(worst_dev),
                tol,
                worst_dev <= tol,
            )
        )

    corr = max(readout_correlation_residual(2), readout_correlation_residual(3))
    records.append(
        _record(
            "readout-correlation",
            "causalkit dump --object readout-unitary:3",
            f"off-rule probability mass <= {tol:g} at d=2 and d=3",
            _fmt(corr),
            tol,
            corr <= tol,
        )
    )

    shared = PROCESS_BUILDERS["shared-bell"]()
    rep = validate_process(shared, tol)
    ns = check_order(shared, "no-signaling", tol).compatible
    npt_ok, npt_eig = is_ppt_cut(shared, "B", tol)
    records.append(
        _record(
            "process-shared-bell-npt",
            "causalkit ppt --process shared-bell --cut B",
            "valid no-signaling process with min transposed eig -0.5",
            f"valid {rep.valid}, no-signaling {ns}, min eig {_fmt(npt_eig)}",
            tol,
            rep.valid and ns and (not npt_ok) and abs(npt_eig + 0.5) <= tol,
        )
    )

    acc = tdr_accounting_ebw()
    records.append(
        _record(
            "classical-tdr-ebw",
            "causalkit classical tdr --strategy ebw --exact",
            "27/32",
            f"{acc.overall} (per input {acc.per_input_min}..{acc.per_input_max})",
            0.0,
            acc.overall == Fraction(27, 32)
            and acc.per_input_min == acc.per_input_max == Fraction(27, 32),
        )
    )
    records.append(
        _record(
            "classical-tdr-branches",
            "causalkit classical tdr --strategy ebw --exact",
            "majority-0 weight 27/32 with conditional success 1; majority-1 success 0",
            f"weights {', '.join(map(str, acc.branch_weight))}; success {', '.join(map(str, acc.branch_success))}",
            0.0,
            acc.branch_weight[0] == Fraction(27, 32)
            and acc.branch_success[0] == 1
            and acc.branch_success[1] == 0,
        )
    )

    consistent = is_logically_consistent(ebw_process())
    records.append(
        _record(
            "classical-ebw-consistent",
            "causalkit classical tdr --strategy ebw --exact",
            "each of the 64 local-function choices has exactly one fixed point",
            "logically consistent" if consistent else "inconsistent",
            0.0,
            consistent,
        )
    )

    nc = tdr_success_no_collab()
    records.append(
        _record(
            "classical-tdr-no-collab",
            "causalkit classical tdr --strategy none --exact",
            "27/64",
            str(nc),
            0.0,
            nc == Fraction(27, 64),
        )
    )

    rel = tdr_relay_accounting()
    records.append(
        _record(
            "classical-tdr-relay",
            "causalkit classical tdr --strategy definite --exact",
            "3/4 (players: 3/4, 1, 1)",
            f"{rel.overall} (players {', '.join(map(str, rel.per_player))})",
            0.0,
            rel.overall == Fraction(3, 4) and rel.per_player == (Fraction(3, 4), Fraction(1), Fraction(1)),
        )
    )

    fe = ftdr_accounting("ebw")
    records.append(
        _record(
            "classical-ftdr-ebw",
            "causalkit classical ftdr --strategy ebw --exact",
            "27/32 with both rounds 27/32",
            f"{fe.overall} (rounds {fe.round_success[0]}, {fe.round_success[1]})",
            0.0,
            fe.overall == Fraction(27, 32)
            and fe.round_success == (Fraction(27, 32), Fraction(27, 32)),
        )
    )

    fd = ftdr_accounting("definite_order")
    records.append(
        _record(
            "classical-ftdr-definite",
            "causalkit classical ftdr --strategy definite --exact",
            "21/32 with rounds 3/4 and 9/16",
            f"{fd.overall} (rounds {fd.round_success[0]}, {fd.round_success[1]})",
            0.0,
            fd.overall == Fraction(21, 32)
            and fd.round_success == (Fraction(3, 4), Fraction(9, 16)),
        )
    )

    mutant = eval_gyni(_resend_same_mutant())
    records.append(
        _record(
            "mutation-resend-same-detected",
            "causalkit gyni --process cyril",
            "re-preparing the measured bit unchanged shifts the value by > 0.05",
            f"mutant {_fmt(mutant)}, gap {_fmt(abs(mutant - CYRIL_GYNI_VALUE))}",
            0.05,
            abs(mutant - CYRIL_GYNI_VALUE) > 0.05,
        )
    )

    hide = 0.0
    for x1 in range(2):
        for x2 in range(2):
            state = bell_state(BellCode(2, x1, x2))
            for wire in ("A", "B"):
                marg = partial_trace(state, {wire})
                hide = max(hide, float(np.max(np.abs(marg.matrix - np.eye(2) / 2))))
    records.append(
        _record(
            "codes-hide-marginals",
            "causalkit dump --object bell:1,1",
            "single-wire marginals of all four qubit codes equal I/2 within 1e-12",
            _fmt(hide),
            1e-12,
            hide <= 1e-12,
        )
    )

    return records


def cmd_manifest(args, parser, tol) -> int:
    records = build_manifest(tol)
    failures = [r for r in records if r.status != "pass"]
    if args.json:
        print(
            json.dumps(
                {
                    "records": [r.to_dict() for r in records],
                    "total": len(records),
                    "failures": len(failures),
                    "status": "pass" if not failures else "fail",
                },
                indent=2,
            )
        )
    else:
        width = max(len(r.claim_id) for r in records)
        for r in records:
            print(f"{r.status.upper():4s} {r.claim_id:<{width}s} expected {r.expected} | got {r.computed}")
        print(f"{len(records) - len(failures)}/{len(records)} reproduction records passed")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# Parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalkit",
        description="Process matrices, causal order, and retrieval games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("validate", help="check process validity constraints")
    p.add_argument("process_file", nargs="?", help="path to a process dump")
    p.add_argument("--process", help=f"built-in process: {', '.join(sorted(PROCESS_BUILDERS))}")
    add_json(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("ppt", help="partial-transpose test across the party cut")
    p.add_argument("process_file", nargs="?", help="path to a process dump")
    p.add_argument("--process", help="built-in process name")
    p.add_argument("--cut", default="B", help="party whose wires are transposed (default B)")
    add_json(p)
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("gyni", help="evaluate the mutual input-guessing game")
    p.add_argument("--process", default="cyril", help=f"strategy: {', '.join(sorted(GYNI_STRATEGIES))}")
    add_json(p)
    p.set_defaults(func=cmd_gyni)

    p = sub.add_parser("drb", help="evaluate the coded-state retrieval game")
    p.add_argument("--strategy", default="pauli-y", help=f"strategy: {', '.join(sorted(DRB_STRATEGIES))}")
    add_json(p)
    p.set_defaults(func=cmd_drb)

    p = sub.add_parser("duality", help="translate a strategy between the games and certify the value")
    p.add_argument("--direction", required=True, choices=["gyni2dr", "dr2gyni"])
    p.add_argument("--process", help="built-in strategy name for the source game")
    p.add_argument("--seed", type=int, help="use a seeded random strategy instead")
    p.add_argument("--dim", type=int, default=2, help="local dimension for --seed (default 2)")
    p.add_argument("--emit-certificate", metavar="PATH", help="write the certificate JSON here")
    add_json(p)
    p.set_defaults(func=cmd_duality)

    p = sub.add_parser("classical", help="exact classical tripartite values")
    p.add_argument("variant", choices=["tdr", "ftdr"])
    p.add_argument("--strategy", required=True, help="tdr: ebw|definite|none; ftdr: ebw|definite")
    p.add_argument("--exact", action="store_true", help="print the exact rational (always included)")
    add_json(p)
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("dump", help="print a built-in object in the dump format")
    p.add_argument("--object", required=True, help="cyril | bell:x1,x2[,d] | readout-unitary[:d[:party]]")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser("manifest", help="recompute and check every headline claim")
    add_json(p)
    p.set_defaults(func=cmd_manifest)

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
    return args.func(args, parser, tol)


if __name__ == "__main__":
    sys.exit(main())
