#!/usr/bin/env python3
"""The table group of ``scripts/microbench.py``, under its former name.

Takes the same ``--repeat`` and ``--number``; run from the root of a checkout:

    PYTHONPATH=src python scripts/table_microbench.py --repeat 7

is ``scripts/microbench.py --group table --repeat 7``.
"""

import sys

import microbench

if __name__ == "__main__":
    sys.argv[1:1] = ["--group", "table"]
    microbench.main()
