"""Write reference.json: the output summary of every case of every workload.

    python3 bench/make_reference.py [workload ...]

Run from the repository root at the commit whose outputs are the
reference.  Workloads not named keep their stored entries.
"""

import json
import sys

from run import REFERENCE, import_package


def main(names) -> None:
    import_package()
    import workloads

    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        cases = list(range(w.pool))
        state = w.setup(cases)
        ref[name] = {str(c): w.summary(w.run(state, i)) for i, c in enumerate(cases)}
        print(f"{name}: {len(cases)} cases", flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
