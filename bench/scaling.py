"""Scaling of two layers with the local dimension d, measured through the tracer.

    python3 bench/scaling.py [--seed 1]

Prints one markdown row per (layer, d): ``validate_process`` on a seeded
random process at d = 2..5 and ``check_duality`` in both directions on seeded
random strategies at d = 2..4. Times are the median of the traced calls'
total time; ``product_trace`` calls are per call of the layer.
"""

from __future__ import annotations

import argparse
import resource
import statistics

from tracer import Tracer
from workloads import ck, input_rng, sampling

REPEATS = {2: 20, 3: 10, 4: 5, 5: 3}


def traced(fn, repeats: int) -> tuple[float, Tracer]:
    tracer = Tracer()
    with tracer.patch():
        for _ in range(repeats):
            with tracer.span("bench.call"):
                fn()
    call = tracer.names.index("bench.call")
    durations = [e - s for s, e, n in zip(tracer.start, tracer.end, tracer.name_id) if n == call]
    return statistics.median(durations), tracer


def row(layer: str, d: int, seconds: float, tracer: Tracer, repeats: int) -> None:
    calls = tracer.summary().get("tensor.product_trace", (0, 0.0, 0.0))[0] / repeats
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"| {layer} | {d} | {seconds * 1e3:.1f} | {tracer.max_side} | {calls:g} | {rss:.0f} |")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    print("| layer | d | median ms | max side | product_trace calls | peak RSS MB |")
    print("|---|---|---|---|---|---|")
    # Ordered by the largest operator each row builds, so the high-water RSS
    # after a row is that row's own peak.
    for layer, d in (("validate", 2), ("duality", 2), ("validate", 3), ("validate", 4),
                     ("validate", 5), ("duality", 3), ("duality", 4)):
        rng = input_rng(seed, d)
        if layer == "validate":
            proc = sampling.random_process(rng, d)
            ck.validate_process(proc)  # warm-up
            seconds, tracer = traced(lambda: ck.validate_process(proc), REPEATS[d])
            row("validate_process", d, seconds, tracer, REPEATS[d])
            continue
        gyni, dr = sampling.random_gyni_strategy(rng, d), sampling.random_dr_strategy(rng, d)
        repeats = max(REPEATS[d] // 2, 1)
        for direction, strategy in (("gyni2dr", gyni), ("dr2gyni", dr)):
            seconds, tracer = traced(lambda: ck.check_duality(strategy, direction), repeats)
            row(f"check_duality {direction}", d, seconds, tracer, repeats)


if __name__ == "__main__":
    main()
