"""Write pinned_payloads.json: the run_scenario payload of every block that a
sim workload runs at the default seed, for any --seconds up to 60.

Run from the root of a checkout:

    python3 bench/pin.py

run.py compares default-seed runs with these pins, which holds later
commits to the rule that a speed-up keeps SimReport.payload() bit-identical
for a given seed.  Regenerate them only with a deliberate change of the
random draw scheme (a `seed_scheme` bump).
"""

from __future__ import annotations

import json

import run

MAX_SECONDS = 60


def main():
    rm = run.import_rankmetric()
    pins = {}
    for w in run.WORKLOADS.values():
        if w.scenario:
            blocks = run.make_plan(w, MAX_SECONDS).blocks
            pins[w.name] = run.run_blocks(rm, w, run.DEFAULT_SEED, blocks)[2]
            print(w.name, blocks, "blocks", flush=True)
    lines = ",\n".join(
        f" {json.dumps(name)}: [\n  "
        + ",\n  ".join(json.dumps(p, sort_keys=True) for p in payloads)
        + "\n ]" for name, payloads in pins.items())
    run.PINS.write_text("{\n" + lines + "\n}\n")


if __name__ == "__main__":
    main()
