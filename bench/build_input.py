"""Build one seeded input of a benchmark workload in a fresh interpreter.

    python3 bench/build_input.py WORKLOAD SEED INDEX OUTDIR

The caller times this whole process as one set-up: interpreter start, the
causalkit import, and building and writing input INDEX. The last line printed
is the path of the causalkit package that was imported.
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seed, index, outdir = sys.argv[1:]
    workloads.WORKLOADS[name]().build(int(seed), int(index), Path(outdir))
    print(workloads.ck.__file__)
