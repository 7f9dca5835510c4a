"""Set-up probe: import the package, load one workload's inputs, say "ready".

run.py times a fresh interpreter from its start to the "ready" line; the
probe then prints the median of five calibration runs, the speed that
time is scaled by.

    python3 perfbench/setup_probe.py sweeps|queries|tables
"""

import sys

import phasecomb

from workloads import load_inputs

load_inputs(phasecomb, sys.argv[1])
print("ready", flush=True)

from calibration import calibrate  # noqa: E402  (after the timed part)

print(sorted(calibrate() for _ in range(5))[2])
