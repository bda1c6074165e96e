"""Python calls per kernel step on the kernel-long shape, for any source tree.

Replays the ``vm.py_calls_per_step`` count against another checkout of
the program, so the count can be followed across past commits::

    git archive <commit> src | tar -x -C /tmp/tree
    python3 perfbench/replay_calls.py /tmp/tree/src

Runs ``programs.kernel_long`` under a plain ``RandomScheduler`` at seed
1, profiles ``Kernel.run`` only (cyclic GC off, as in the traced run),
and prints one JSON line with the exact call count and the count
``pstats`` reports (which merges same-labelled functions).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from harness import count_calls

#: the seed of the ROADMAP's kernel-long baseline
SEED = 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory holding the repro package")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from repro.vm import RandomScheduler

    from programs import kernel_long

    kernel_long(RandomScheduler(seed=SEED)).run()  # warm-up
    kernel = kernel_long(RandomScheduler(seed=SEED))
    calls, pstats_calls = count_calls(kernel.run)
    steps = kernel.steps
    print(json.dumps({
        "steps": steps,
        "calls": calls,
        "calls_per_step": calls / steps,
        "pstats_calls": pstats_calls,
        "pstats_calls_per_step": pstats_calls / steps,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
