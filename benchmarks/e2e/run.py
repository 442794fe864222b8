#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [--selfcheck [N]]

See README.md in this directory.  ``src/`` is put on ``sys.path`` here, so
no ``PYTHONPATH`` is needed; without the library the command exits 2.
"""

import os
import sys

# Imports always compile from source: set-up time must not depend on
# whether an earlier run left bytecode behind.
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"benchmark: the library is missing ({SRC}/repro)\n")
        sys.exit(2)
    sys.path[:0] = [HERE, SRC]
    from e2ebench import cli

    sys.exit(cli.main(sys.argv[1:]))
