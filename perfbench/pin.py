"""Pin the SHA-256 digests of the default seed's outputs into ``pins.json``.

    python3 perfbench/pin.py [WORKLOAD ...]

Run only at a commit whose outputs are trusted: the gate then requires every
later commit to reproduce them byte for byte. The other gate checks must pass
before anything is pinned.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
from run import OUT, run_rep
from workloads import DEFAULT_SEED, WORKLOADS, import_fuseplan, input_files, stages, write_inputs


def main(names: list[str]) -> int:
    import_fuseplan()
    pins = gate.load_pins()
    for name in names or sorted(WORKLOADS):
        # Drop the old pin first: the run must pass every other gate check,
        # but not be compared with the digests it is about to replace.
        pins.pop(name, None)
        gate.PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        workdir = OUT / f"pin-{name}"
        try:
            rep = run_rep(name, DEFAULT_SEED, workdir, 0)
            bad = [s for s in rep["stages"] if s["rc"] != 0 or s["problems"]]
            if bad:
                print(f"{name}: {len(bad)} stages fail the gate, nothing pinned", file=sys.stderr)
                return 1
            workload = WORKLOADS[name]
            # Regenerating the inputs is deterministic, so this lists the same files.
            apps = write_inputs(workload, DEFAULT_SEED, workdir)
            outputs = [s.output for s in stages(workload, apps, workdir, workload.jobs)
                       if s.kind in ("run", "sweep", "pareto")]
            pins[name] = {
                "seed": DEFAULT_SEED,
                "inputs": gate.inputs_digest(input_files(workload, apps, workdir)),
                "outputs": {p.name: gate.sha256(p) for p in outputs},
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        gate.PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        print(f"pinned {name}: {len(pins[name]['outputs'])} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
