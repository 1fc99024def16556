#!/usr/bin/env python3
"""Regenerates perfbench/reference.txt: the digests every benchmark run
checks whatever its --seed. For served_session and shared_fleet they are
the outcome, shared-tier and per-layer count digests of one traced round
of the pinned seed (PINNED_SEED in perfbench/src/lib.rs); for paper_suite
the layer counts of the pinned fig10 cell's wrapped replay.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py

Each traced run is made with the old file moved aside, so its only
failures must be the missing records; any other failure aborts and the
old file is put back. Record anew only when a change is meant to alter
session outcomes or layer counts.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["served_session", "shared_fleet", "paper_suite"]
NOTE = re.compile(r"^note: reference (\w+): ([0-9a-f]{16}) not recorded$")
MISSING = re.compile(r"^FAILED: \w+ \w+ has no record in reference.txt$")


def digests(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    found = [m.groups() for m in map(NOTE.match, lines) if m]
    failures = [l for l in lines if l.startswith("FAILED: ")]
    if not found or result["failed"] != len(found) or not all(map(MISSING.match, failures)):
        sys.exit("%s fails for other reasons than missing records:\n%s" % (workload, out.stdout))
    return found


def main():
    path = os.path.join(HERE, "reference.txt")
    old = path + ".old"
    if os.path.exists(path):
        os.replace(path, old)
    try:
        rows = ["%s %s %s" % (w, key, value) for w in WORKLOADS for key, value in digests(w)]
    except BaseException:
        if os.path.exists(old):
            os.replace(old, path)
        raise
    with open(path, "w") as f:
        f.write("# workload key digest -- written by record_reference.py\n")
        f.write("\n".join(rows) + "\n")
    if os.path.exists(old):
        os.remove(old)


if __name__ == "__main__":
    main()
