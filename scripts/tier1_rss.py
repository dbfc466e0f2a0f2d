"""Run the tier-1 test suite as a child and hold it to a peak-RSS budget.

    python scripts/tier1_rss.py

Runs ``python -m pytest tests/ -q`` in a child process, then reads the
largest resident set any waited-for descendant reached
(``getrusage(RUSAGE_CHILDREN).ru_maxrss``).  Exits with pytest's status
if the suite failed, 1 if the peak exceeded ``BUDGET_MIB``, else 0.
The budget leaves headroom on an 8 GB machine.
"""

from __future__ import annotations

import resource
import subprocess
import sys

BUDGET_MIB = 4096


def main() -> int:
    status = subprocess.call([sys.executable, "-m", "pytest", "tests/",
                              "-q"])
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        peak_kib //= 1024
    peak_mib = peak_kib / 1024
    verdict = "PASS" if peak_mib <= BUDGET_MIB else "FAIL"
    print(f"tier-1 peak RSS {peak_mib:.0f} MiB "
          f"(budget {BUDGET_MIB} MiB): {verdict}")
    if status != 0:
        return status
    return 0 if verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
