"""Write perfbench/pinned.json: inputs and trial streams pinned at one commit.

    python3 perfbench/pin.py

Records the identified sets the classifier rejects on 2x3 and 3x3 (the
strong-necessity inputs) and on 3x4 (the verdicts classify-build checks)
and, for the default seed, a digest of every sweep call's trials_run, hit
count, hit priors and the priors and evidence of every trial.  The benchmark
counts a call whose digest or verdict differs as failed, so a change that
alters a seeded trial stream or a classification shows.  Regenerate only in
a change that redefines the benchmark.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, Recorder, import_bayespol
from workloads import DEFAULT_SEED, DRAWS, WORKLOADS


def failing_sets() -> dict[str, list[int]]:
    from bayespol.classifier import classify
    from bayespol.core import StateSpace, StateSubset

    out = {}
    for dims in ("2x3", "3x3", "3x4"):
        space = StateSpace.grid(*(int(n) for n in dims.split("x")))
        out[dims] = [
            mask
            for mask in range(1, space.full_mask)
            if not classify(space, StateSubset(space, mask)).can_strongly_polarize
        ]
    return out


def main() -> int:
    import_bayespol(Path.cwd())
    pinned = {"seed": DEFAULT_SEED, "failing_sets": failing_sets(), "trial_digests": {}}
    DRAWS.install()
    for name in ("sweep-cells", "strong-necessity"):
        workload = WORKLOADS[name]
        workload.warm_up(pinned)
        tasks = workload.inputs(DEFAULT_SEED, pinned)
        rec = Recorder()
        for task in workload.prepare(tasks):
            rec.run_task(workload, task)
        if rec.failed or len(rec.digests) != len(tasks):
            print(f"{name}: {rec.failed} failed calls: {rec.problems}", file=sys.stderr)
            return 1
        pinned["trial_digests"][name] = [rec.digests[i] for i in range(len(tasks))]
    with open(HERE / "pinned.json", "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
