"""scipy is loaded only where it is used: a fresh interpreter pins the cold start.

`import incpca` and every command but `bound` at c_o < 2 and `verify` need
numpy alone; scipy.special is imported inside theory._zeta and
verify.check_gamma_inequality, at first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from incpca import harness, theory

SRC = Path(__file__).resolve().parent.parent / "src"
BOUND = ["--d", "3", "--delta", "0.25", "--n-o", "1000", "--lambda1", "0.9",
         "--lambda2", "0.05", "--n-min", "1000", "--n-max", "1000000", "--points", "20"]

# runs in the fresh interpreter: after each step, the scipy modules loaded so far
PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {}
import incpca, incpca.cli
seen["import"] = scipy_modules()
from incpca import cli

coord = ["--dist", "coordinate", "--p", "0.3", "--sigma", "0.5", "--d", "4"]
bound = %r
commands = {
    "run krasulina": ["run", *coord, "--rule", "krasulina", "--c", "2.0",
                      "--horizon", "300", "--trials", "3", "--out", "run_k.csv"],
    "run oja": ["run", *coord, "--rule", "oja", "--c", "2.0",
                "--horizon", "300", "--trials", "3", "--out", "run_o.csv"],
    "slope": ["slope", "--input", "run_o.csv", "--n-min", "10", "--n-max", "300"],
    "counterexample": ["counterexample", *coord, "--trials", "5", "--horizon", "50"],
    "schedule": ["schedule", "--delta", "0.1", "--d", "10", "--c-o", "4", "--c", "1",
                 "--out", "schedule.csv"],
    "bound --c-o 4": ["bound", "--c-o", "4", *bound, "--out", "bound4.csv"],
    "bound --c-o 1": ["bound", "--c-o", "1", *bound, "--out", "bound1.csv"],
}
for label, argv in commands.items():
    seen[label] = (cli.main(argv), scipy_modules())
print(json.dumps(seen))
""" % (BOUND,)


def test_scipy_is_loaded_only_by_bound_below_c_o_2(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen.pop("import") == []
    bound1 = seen.pop("bound --c-o 1")
    # each command ran in turn in one interpreter, so every list is cumulative
    assert seen == {label: [0, []] for label in seen}
    assert bound1[0] == 0 and "scipy.special" in bound1[1]

    params = theory.BoundParams(c_o=1.0, B=1.0, d=3, delta=0.25, n_o=1000,
                                lambda1=0.9, lambda2=0.05)
    with open(tmp_path / "bound1.csv", newline="") as fh:
        header, *rows = harness.read_csv(fh)
    assert header == ["n", "bound"] and len(rows) > 1
    for n, value in rows:
        assert float(value) == theory.krasulina_bound(params, int(n))
