"""Record the reference output digests that ``run.py`` checks against.

Run from the repository root after a change that is meant to alter outputs
(or the workloads), and commit the updated ``perfbench/digests.json``:

    python3 perfbench/record_digests.py

Each workload makes one pass at each of two seeds.  A pass with any failed
check is not recorded, and the two digests must agree, since the seed only
orders the items.
"""

from __future__ import annotations

import json
import sys

import run


def digest_of(workload, seed):
    lib = run.library(run.import_hbcells())
    items = workload.setup(lib, seed)
    log = run.Outcomes()
    run.run_pass(workload, lib, items, log)
    if log.failed:
        raise SystemExit(f"{workload.name} seed {seed}: {log.failed} failed items")
    return run.pass_digest(items, log.hashes)


def main():
    digests = {}
    for workload in run.WORKLOADS.values():
        first, second = digest_of(workload, 0), digest_of(workload, 1)
        if first != second:
            raise SystemExit(f"{workload.name}: digest depends on the seed")
        digests[workload.name] = first
        print(workload.name, first, file=sys.stderr)
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
