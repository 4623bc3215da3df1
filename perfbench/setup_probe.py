"""One set-up probe: build a workload's inputs in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the ``time.monotonic()`` at which the inputs were built and the
host-speed factor sampled from the first line of this script until then
(see ``hostspeed``).  ``run.py`` starts it and subtracts its own start time.
The source checkout's ``src/`` must exist; ``run.py`` checks that first.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import hostspeed  # noqa: E402  (standard library only: sampling starts before numpy)

SETUP_PERIOD_S = 0.005  # a set-up takes about 0.4 s; sample it densely

with hostspeed.HostSpeed(SETUP_PERIOD_S) as speed:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    end = time.monotonic()
print(end, speed.factor())
