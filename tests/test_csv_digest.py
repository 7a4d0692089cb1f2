"""The byte gate pins the benchmark's threads before numpy loads."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# in a fresh interpreter: load the gate without running its sweeps, then
# read the names perfbench/run.py pins from that module itself
CHILD = """
import json, os, runpy, sys
runpy.run_path(os.path.join(sys.argv[1], "scripts", "csv_digest.py"), run_name="gate")
sys.path.insert(0, os.path.join(sys.argv[1], "perfbench"))
from run import PINNED_ENV
print(json.dumps({name: os.environ.get(name) for name in PINNED_ENV}))
"""


def test_gate_pins_every_benchmark_thread_variable():
    env = {
        name: value for name, value in os.environ.items()
        if not name.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))
    }
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, ROOT],
        capture_output=True, text=True, env=env, check=True,
    )
    pinned = json.loads(proc.stdout)
    assert "OPENBLAS_NUM_THREADS" in pinned
    assert pinned == dict.fromkeys(pinned, "1")
