"""Set-up probe: import the package the way the CLI does and parse one
config, then print the library versions as one JSON line.

Usage::

    python3 perfbench/setup_probe.py scenario|sweep CONFIG

The launching process times this interpreter from launch to exit, which is
the set-up cost every CLI command pays before its first solver step.
"""

import json
import sys

import varentropy_lab
import varentropy_lab.cli  # noqa: F401  (the CLI's own import set)


def versions() -> dict:
    """Versions of Python, the numerical libraries and the package."""
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "varentropy_lab": getattr(varentropy_lab, "__version__", None),
    }


def main(kind: str, path: str) -> int:
    parse = {"scenario": varentropy_lab.ScenarioConfig,
             "sweep": varentropy_lab.SweepConfig}[kind].from_json
    parse(path)
    print(json.dumps(versions()))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
