"""Runs one workload in this process and prints its raw measurements as JSON.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE_ROUNDS [--smoke]

With TRACE_ROUNDS 0 the run is untraced: rounds run until SECONDS have
passed, and set-up is timed in short bursts of repeats, one before the first
round and more spread over the run, so that a slow spell of a shared machine
cannot take all of its samples.  Otherwise set-up runs once and exactly
TRACE_ROUNDS rounds run under the tracer, so per-layer counts are exact
counts of a fixed piece of work.  ``run.py`` starts this file, one process
per workload, and turns its output into metrics.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import SETUP_OP, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_BURSTS = 6          # bursts after the first one, over SECONDS
SETUP_BURST_S = 0.1       # a burst repeats set-up at least this long
MAX_REPORTED_FAILURES = 20
PROBE_EVERY_S = 0.25
PROBE_SIZE = 12000
PROBE_REF_S = 0.003       # the probe's time at the reference speed


def _probe_loop() -> int:
    x, y, total = 3 ** 400, 7 ** 350, 0
    for i in range(PROBE_SIZE):
        total += x * (i + 1) // (y + i)
    return total


class SpeedProbe:
    """Measures how fast the machine runs plain Python, through the run.

    The benchmark runs on shared hosts where other tenants slow every
    process by up to 1.8 times, in spells of a few seconds to many minutes.
    A fixed loop of big-integer arithmetic is timed at the start of every
    round, at the start and end of every set-up burst, and between ops at
    most every PROBE_EVERY_S seconds.  Each round and each burst is scaled
    by PROBE_REF_S over the mean probe time of the readings taken in it.
    That takes the spells out of the metrics, while op code that gets
    slower still shows, since the probe does not run fatflip.  A single
    reading varies more than an op of 50 ms does, so the probe scales
    whole rounds, not single ops.
    """

    def __init__(self):
        self.took = []
        self.last = None

    def sample(self, force: bool = False) -> None:
        """Time the probe, unless it ran less than PROBE_EVERY_S ago."""
        now = time.perf_counter()
        if not force and self.last is not None \
                and now - self.last < PROBE_EVERY_S:
            return
        gc.disable()
        try:
            start = time.perf_counter()
            _probe_loop()
            self.last = time.perf_counter()
        finally:
            gc.enable()
        self.took.append(self.last - start)

    def start(self) -> int:
        """Take a reading now; returns the index ``speed_since`` takes."""
        first = len(self.took)
        self.sample(force=True)
        return first

    def speed_since(self, first: int) -> float:
        """The speed over the readings from index ``first`` on."""
        return PROBE_REF_S / statistics.mean(self.took[first:])


def import_fatflip():
    """Import fatflip from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    ff = importlib.import_module("fatflip")
    for module in ("intlinalg", "randgen", "selftest"):
        importlib.import_module("fatflip." + module)
    if Path(ff.__file__).resolve().parent.parent != SRC:
        raise ImportError("fatflip was imported from %s, not from %s"
                          % (ff.__file__, SRC))
    return ff


class Recorder:
    """Times ops and counts attempts and failures.

    An op that raises, or whose output fails its check, is a failure; the
    run goes on.  A standalone check is one more attempt.
    """

    def __init__(self, probe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.op_s = []        # one list of op seconds per round
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(message)

    def op(self, func, *args, check=None):
        """Run and time one op; returns its result, or None if it raised."""
        self.attempted += 1
        self.probe.sample()
        if self.tracer:
            self.tracer.op = self.ops
        start = time.perf_counter()
        try:
            result = func(*args)
        except Exception:
            result, error = None, traceback.format_exc()
        else:
            error = None
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer:
                self.tracer.op = None
        self.op_s[-1].append(elapsed)
        self.ops += 1
        if error is None and check is not None:
            error = check(result)
        if error is not None:
            self._fail("op %d: %s" % (self.ops - 1, error))
        return result

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(message)


def run(workload: str, seed: int, seconds: float, trace_rounds: int,
        smoke: bool) -> dict:
    ff = import_fatflip()
    wl = WORKLOADS[workload](ff, smoke)
    tracer = None
    if trace_rounds:
        tracer = Tracer()
        tracer.install(ff)
    probe = SpeedProbe()
    rec = Recorder(probe, tracer)

    setup_s = []        # one list of set-up seconds per burst
    setup_speed = []    # the probe's speed at the start and end of each burst

    def setup_burst():
        first = probe.start()
        setup_s.append([])
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            inputs = wl.setup(seed)
            setup_s[-1].append(time.perf_counter() - start)
            if tracer or time.perf_counter() - begin >= SETUP_BURST_S:
                probe.sample(force=True)
                setup_speed.append(probe.speed_since(first))
                return inputs

    wl.warm(seed)
    if tracer:
        tracer.op = SETUP_OP
    inputs = setup_burst()
    if tracer:
        tracer.op = None
    gc.collect()

    work, round_speed = [], []
    start = last_burst = time.perf_counter()
    while (len(work) < trace_rounds if tracer
           else not work or time.perf_counter() < start + seconds):
        if (not tracer and
                time.perf_counter() - last_burst >= seconds / SETUP_BURSTS):
            inputs = setup_burst()
            last_burst = time.perf_counter()
        first = probe.start()
        rec.op_s.append([])
        work.append(wl.round(inputs, rec))
        round_speed.append(probe.speed_since(first))
    rec.check(all(w == work[0] for w in work),
              "work counts differ between rounds: %s" % work)
    wl.final_checks(seed, rec)

    result = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "op_s": rec.op_s,
        "round_speed": round_speed,
        "work": work[0] or {},
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = tracer.summary()
        tracer.write_spans(HERE / "out" / ("spans-%s-seed%d.csv.gz"
                                           % (workload, seed)))
    return result


def main(argv) -> int:
    smoke = "--smoke" in argv
    workload, seed, seconds, trace_rounds = [a for a in argv if a != "--smoke"]
    result = run(workload, int(seed), float(seconds), int(trace_rounds), smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
