#!/usr/bin/env python3
"""Adaptive refinement study: estimator decay and marking statistics.

The study driver with these defaults, which any flag given here overrides:

    cordesfem --problem two_control_switch --p 3 --cont dg \
              --mark doerfler:0.5 --max-dofs 50000 --out out/adaptive
"""

import sys

from cordesfem.cli import main

DEFAULTS = ["--problem", "two_control_switch", "--p", "3", "--cont", "dg",
            "--mark", "doerfler:0.5", "--max-dofs", "50000", "--out", "out/adaptive"]

if __name__ == "__main__":
    sys.exit(main(DEFAULTS + sys.argv[1:]))
