"""Run one command and report its wall time and its own peak memory.

Usage::

    python3 scripts/child_rss.py CMD [ARG...]

For example, from the repository root::

    PYTHONPATH=src python3 scripts/child_rss.py \
        python3 -m varentropy_lab run configs/double_well_relax.json --out out/relax

The command inherits this process's environment, working directory and
standard streams, and its exit code is this script's. When it has exited,
one line goes to stderr::

    child_rss: wall_s=3.012 peak_rss_mb=47.1 exit=0

``exit`` is negative when a signal ended the command; this script then
exits with 128 plus the signal number, as a shell reports it.

``peak_rss_mb`` is the command's ``ru_maxrss`` from ``wait4``, in MiB. Linux
carries a parent's resident high-water mark into a child across fork and
exec, so that figure is the larger of the two peaks. This script imports only
the standard library and touches no large data, so its own peak is about
that of a bare interpreter, below any command that imports numpy, and the
figure is the command's alone. ``wall_s`` runs from just before the spawn
to the reaped exit.
"""

from __future__ import annotations

import os
import sys
import time


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 scripts/child_rss.py CMD [ARG...]", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        pid = os.posix_spawnp(argv[0], argv, os.environ)
    except OSError as err:
        print(f"child_rss: cannot start {argv[0]}: {err}", file=sys.stderr)
        return 127
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    print(f"child_rss: wall_s={wall:.3f} peak_rss_mb={usage.ru_maxrss / 1024.0:.1f} exit={code}",
          file=sys.stderr)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
