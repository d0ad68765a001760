#!/usr/bin/env python
"""Completeness demo: every matching pair joins exactly once — even while
keys are being migrated.

Uses the exact-semantics engine (tuple-level, same ordering rules as the
performance simulator) to run an adversarial schedule: tuples arrive while
their keys are mid-migration, and the routing table flips under in-flight
traffic.  The final check compares the emitted pair set against the ground
truth cross-product per key.

Run:  python examples/exactly_once_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.join.exact import ExactBiclique, join_product


def main() -> None:
    rng = np.random.default_rng(42)
    engine = ExactBiclique(n_instances=4, dispatch_delay=0.5)

    now = 0.0
    migrations = 0
    for step in range(400):
        now += float(rng.uniform(0.0, 0.2))
        action = rng.random()
        if action < 0.45:
            engine.ingest("R", int(rng.integers(0, 8)), now)
        elif action < 0.90:
            engine.ingest("S", int(rng.integers(0, 8)), now)
        elif action < 0.95:
            engine.step(now)
        else:
            key = int(rng.integers(0, 8))
            side = "R" if rng.random() < 0.5 else "S"
            source = engine._route(side, key)
            target = int(rng.integers(0, 4))
            if target != source:
                engine.migrate(side, source, target, {key}, now,
                               duration=float(rng.uniform(0.0, 1.0)))
                migrations += 1

    engine.drain(now + 10.0)
    ok, message = engine.check_exactly_once()

    print(f"tuples ingested : {len(engine.uid_keys['R'])} R + "
          f"{len(engine.uid_keys['S'])} S")
    print(f"migrations fired: {migrations} (mid-stream, adversarial timing)")
    n_expected = join_product(engine.uid_keys["R"], engine.uid_keys["S"])
    print(f"expected pairs  : {n_expected}")
    print(f"emitted pairs   : {engine.n_pairs}")
    print(f"verdict         : {message}")
    assert ok, message


if __name__ == "__main__":
    main()
