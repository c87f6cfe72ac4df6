#!/usr/bin/env python3
"""Record the pinned-seed output digests that every benchmark run checks.

    python3 perfbench/record_digests.py

Run it only when a change is meant to alter the program's outputs, and say
so in that change: a benchmark run whose pinned-seed digest differs from
``digests.json`` counts the cell as failed.
"""

import json

from run import DIGESTS, pinned_digest
from workloads import PINNED_VARIANT, WORKLOADS

if __name__ == "__main__":
    digests = {
        name: {"variant": PINNED_VARIANT, "instances": w.check_instances, "sha256": pinned_digest(w)}
        for name, w in WORKLOADS.items()
    }
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(digests, indent=1))
