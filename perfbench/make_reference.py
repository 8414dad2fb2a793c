"""Write the correctness gate's reference outputs into perfbench/reference/.

Run from the root of a checkout whose outputs are accepted as correct:

    python3 perfbench/make_reference.py

Each reference is the digest of one pass of a workload's tiny input at the
reference seed. A later commit passes the gate when its digest agrees with
these within ``workloads.TOL``; regenerate them only when a change of output
is intended, and say why in the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from worker import REFERENCE_DIR, REFERENCE_SEED, import_distnn


def main() -> int:
    import_distnn()
    from workloads import WORKLOADS

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name, make in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=os.path.dirname(REFERENCE_DIR)) as tmp:
            wl = make(REFERENCE_SEED, tmp, True)
            for k in range(wl.calls_per_pass):
                wl.account(k, wl.call(k))
            problems = wl.check()
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            digest = wl.digest()
        with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(digest, fh, sort_keys=True, allow_nan=False)
            fh.write("\n")
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
