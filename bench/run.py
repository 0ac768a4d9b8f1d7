"""Run one causalkit benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload manifest-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` times public causalkit calls from outside the program and prints
the end-to-end metrics named in BENCHMARK.json. ``--trace 1`` instead
alternates untraced and traced operations, the traced ones with every public
function of every layer wrapped in a span (see ``tracer.py``), and prints the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up functions whose per-layer figures are per input built, on the
# workloads that build inputs; the manifest samples inside its operation.
SETUP_FUNCTIONS = {
    "processes.dump_process",
    "sampling.random_process",
    "sampling.random_gyni_strategy",
    "sampling.random_dr_strategy",
}
# Share of the measured window spent on repeated set-ups. The machine's speed
# drifts over tens of seconds; set-ups spread between the operations sample
# it at the same moments as the operations do, so ``setup_s`` (their median)
# does not hang on the one moment at the start of the run.
SETUP_SHARE = 0.2


class Tally:
    """Counts the operations of one run and keeps every failure's reason."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.errors: list[str] = []

    def run(self, op, inp) -> tuple[float, float] | None:
        """Time one operation, check it untimed; (wall s, CPU s) if it passed."""
        self.attempted += 1
        cpu0 = self.workload.cpu_s()
        t0 = time.perf_counter()
        try:
            out = op(inp)
        except Exception:
            self.errors.append(traceback.format_exc(limit=3))
            return None
        wall = time.perf_counter() - t0
        cpu = self.workload.cpu_s() - cpu0
        try:
            err = self.workload.check(inp, out)
        except Exception:
            err = traceback.format_exc(limit=3)
        if err:
            self.errors.append(err)
            return None
        return wall, cpu


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def set_up(workload, seed: int, index: int, outdir: Path) -> float:
    """Build input ``index`` in a fresh interpreter; return its wall time."""
    from workloads import SRC, child_env

    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "build_input.py"), workload.name, str(seed), str(index), str(outdir)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=150,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up of input {index} failed:\n{proc.stderr}")
    used = Path(proc.stdout.strip()).resolve().parent
    if used != (SRC / "causalkit").resolve():
        raise SystemExit(f"bench: set-up imported causalkit from {used}, not from {SRC}")
    return wall


def plain_run(workload, args, tmp: Path, spec: dict) -> dict:
    n_setups = max(workload.n_inputs, 1)
    setup = [set_up(workload, args.seed, i, tmp) for i in range(n_setups)]
    inputs = [workload.load(tmp, i) for i in range(workload.n_inputs)] or [None]
    Tally(workload).run(workload.op, inputs[0])  # first-call costs stay out of the timed operations
    again = tmp / "again"
    again.mkdir()
    tally = Tally(workload)
    timings = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while (now := time.perf_counter()) < deadline:
        if sum(setup[n_setups:]) < SETUP_SHARE * (now - start):
            setup.append(set_up(workload, args.seed, len(setup) % n_setups, again))
        else:
            timings.append(tally.run(workload.op, inputs[tally.attempted % len(inputs)]))
    passed = [t for t in timings if t]
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": median([wall for wall, _ in passed]),
        "op_cpu_p50_s": median([cpu for _, cpu in passed]),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    return finish(workload, tally, inputs, spec["end_to_end"], values)


def traced_run(workload, args, tmp: Path, spec: dict) -> dict:
    from tracer import Tracer

    setup_tracer = Tracer()
    with setup_tracer.patch():
        for index in range(workload.n_inputs):
            with setup_tracer.span("bench.build_input"):
                workload.build(args.seed, index, tmp)
    inputs = [workload.load(tmp, i) for i in range(workload.n_inputs)] or [None]
    tracer = Tracer()
    Tally(workload).run(workload.in_process_op, inputs[0])  # warm-up, untraced

    def traced(inp):
        with tracer.patch(), tracer.span(f"bench.{workload.name}"):
            return workload.in_process_op(inp)

    tally = Tally(workload)
    plain, spanned = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        inp = inputs[len(plain) % len(inputs)]
        plain.append(tally.run(workload.in_process_op, inp))
        spanned.append(tally.run(traced, inp))
    n_ops = len(spanned)  # failed operations leave spans too: divide by every traced attempt
    plain = [wall for wall, _ in filter(None, plain)]
    spanned = [wall for wall, _ in filter(None, spanned)]
    work = ROOT / ".bench"
    tracer.save(work / f"spans-{workload.name}.npz")
    setup_tracer.save(work / f"spans-{workload.name}-setup.npz")

    op_summary, setup_summary, n_built = tracer.summary(), setup_tracer.summary(), workload.n_inputs
    untraced_s, traced_s = median(plain), median(spanned)
    values = {
        "tensor.product_trace.operand_mb": tracer.operand_bytes / 2**20 / n_ops,
        "tensor.max_side": tracer.max_side,
        "trace.untraced_op_s": untraced_s,
        "trace.traced_op_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    fields = {"calls": 0, "total_s": 1, "self_s": 2}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in values:
            continue
        function, field = name.rsplit(".", 1)
        summary, count = op_summary, n_ops
        if function in SETUP_FUNCTIONS and n_built:
            summary, count = setup_summary, n_built
        values[name] = summary.get(function, (0, 0.0, 0.0))[fields[field]] / count
    return finish(workload, tally, inputs, spec["per_layer"], values)


def finish(workload, tally: Tally, inputs, metrics: list[dict], values: dict) -> dict:
    run_error = workload.run_check(inputs)
    for err in tally.errors[:3] + ([run_error] if run_error else []):
        print(f"bench: {workload.name}: {err}", file=sys.stderr)
    return {
        "correct": run_error is None,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed at least 0")

    from workloads import WORKLOADS  # exits when the checkout has no causalkit source

    workload = WORKLOADS[args.workload]()
    work = ROOT / ".bench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        run = traced_run if args.trace else plain_run
        result = run(workload, args, Path(tmp), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
