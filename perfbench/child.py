"""Run one strongreal CLI job in this (fresh) interpreter.

Usage: child.py <checkout root> <sidecar path> <trace 0|1> <cli args...>

The CLI's stdout and exit code pass through unchanged.  The sidecar gets a
JSON object with the CLOCK_MONOTONIC time at which `strongreal.cli` finished
importing, the core speed the probe (probe.py) saw until then and over the
whole job, and, when tracing, the recorder's aggregates and spans.
"""

import probe

probe.start()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

root, sidecar, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
sys.path.insert(0, os.path.join(root, "src"))

import strongreal.cli  # noqa: E402

imported_at = time.monotonic()
setup_samples = len(probe.samples)
expected = os.path.join(os.path.realpath(root), "src", "strongreal")
if os.path.dirname(os.path.realpath(strongreal.cli.__file__)) != expected:
    sys.exit(f"strongreal was imported from {strongreal.cli.__file__}, not {expected}")

record = {"imported_at": imported_at}
if trace:
    from tracer import Tracer

    with open(os.path.join(os.path.dirname(__file__), "workloads.json")) as fh:
        tracer = Tracer(json.load(fh)["layers"])
    tracer.install()
try:
    rc = strongreal.cli.main(sys.argv[4:])
finally:
    probe.stop()
    sys.stdout.flush()
    if trace:
        tracer.uninstall()
        record["trace"] = tracer.recorder.to_json()
    record["setup_speed"] = probe.speed(probe.samples[:setup_samples])
    record["speed"] = probe.speed(probe.samples)
    with open(sidecar, "w") as fh:
        json.dump(record, fh)
sys.exit(rc)
