"""Core-speed probe that rescales job times to a reference core speed.

The host this benchmark runs on shares its cores, and the speed of one
core moves by up to ~2x within seconds and over minutes as other tenants
load it.  The drop is per instruction: CPU time grows with wall time, so
neither clock removes it.  The probe measures it where the job runs: a timer
signal every `INTERVAL_S` runs a fixed pure-Python loop, once to warm it and
once timed, inside the job's own process.  With samples uniform in wall
time, `speed(samples)` is the mean of `REF_S / duration`, the share of the
reference speed the job got, and `wall * speed` is the time the job would
have taken on a core that runs the loop in `REF_S`.  A change to the
program moves `wall`, not the loop, so it still shows in full.

`start()` and `stop()` run in the job's process (perfbench/child.py);
nothing else of this module touches strongreal.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.004
# Time of the timed loop on an unloaded core of the host the baseline was
# recorded on (Intel Xeon, 2 vCPUs, Python 3).
REF_S = 10e-6

samples: list[float] = []
_clock = time.perf_counter


def _loop() -> int:
    s = 0
    for i in range(200):
        s += i * i % 7
    return s


def _sample(signum, frame) -> None:
    _loop()  # warm: the job has just evicted the loop from the caches
    t = _clock()
    _loop()
    samples.append(_clock() - t)


def start() -> None:
    samples.clear()
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed(durations: list[float]) -> float | None:
    """Share of the reference speed over the sampled interval; None without samples."""
    if not durations:
        return None
    return sum(REF_S / d for d in durations) / len(durations)
