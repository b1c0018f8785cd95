"""The SHA-256 of every record of ``all`` at the odd prime powers q <= 23.

``tests/golden/`` holds the reports of the default qs (q <= 9) only; this
digest pins the records at every q up to 23 with one line.  Run from the
repository root:

    PYTHONPATH=src python tests/records_digest.py          # print it
    PYTHONPATH=src python tests/records_digest.py --check  # compare with the golden one

The run takes about 7 s and 270 MB on a 2-core host.  q = 25 and 27 would
add about 30 s and 640 MB, so they are left out.
"""

import hashlib
import json
import sys
from pathlib import Path

from depthzero.driver import Config, build_tasks, run_campaign

QS = [3, 5, 7, 9, 11, 13, 17, 19, 23]
GOLDEN = Path(__file__).resolve().parent / "golden" / "records_q23.sha256"


def records_digest(qs=QS) -> tuple[int, str]:
    """How many records ``all`` writes at ``qs``, and their digest."""
    records, _durations, _cpus = run_campaign(build_tasks("all", Config(qs=list(qs))), 1)
    return len(records), hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def main(argv) -> int:
    count, digest = records_digest()
    print(f"{count} records, sha256 {digest}")
    if "--check" in argv:
        want = GOLDEN.read_text().strip()
        if digest != want:
            print(f"differs from {GOLDEN.name}: {want}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
