"""One cold CLI invocation, timed from inside the fresh interpreter.

    python3 perfbench/child.py RECORD [--spans FILE] -- ARGV...
    python3 perfbench/child.py RECORD --setup-only

Imports ``virfock`` from this checkout's ``src/``, optionally installs the
layer tracer, calls ``virfock.cli.main(ARGV)`` and writes RECORD as JSON.
With ``--setup-only`` it stops after the import and writes only ``ready``
and ``setup_scale``: one more sample of set-up time.

    ready        monotonic clock when the engine was imported (comparable
                 with the parent's clock on Linux)
    main_s       wall time inside main()
    ref_main_s   the same time at the reference CPU speed (SpeedProbe)
    setup_scale  REF_PROBE_S over the median of SETUP_PROBES probes taken
                 just after the import
    rc, maxrss_kb, and when traced, layers and absent

The CLI's own output goes to stdout.
"""

import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# On a shared host the CPU speed can swing by 1.8x over minutes, which spreads
# raw times of identical runs by 30-45%.
# A ~80 us exact-arithmetic probe, run every INTERVAL_S during main(), measures
# that speed where the program runs; each interval's wall time is scaled by
# REF_PROBE_S / probe time.  REF_PROBE_S is the probe's uncontended time on a
# 2-vCPU x86-64 VM with CPython 3.11, so reference seconds read close to
# wall seconds on a quiet machine of that kind.
REF_PROBE_S = 80e-6
INTERVAL_S = 0.02
# The first probes after start-up run cold and can read 2x slow; the median
# of this many (~2-4 ms) is steady.
SETUP_PROBES = 25


def probe() -> float:
    """Seconds one fixed piece of Fraction arithmetic takes right now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(1, i)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the CPU speed on SIGALRM while main() runs."""

    def __init__(self):
        self.samples = []  # (clock at the probe, probe duration)

    def _sample(self, *_):
        self.samples.append((time.perf_counter(), probe()))

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall time from start to end, each stretch scaled by its nearest probe."""
        times = [t for t, _ in self.samples]
        edges = [start] + [(a + b) / 2 for a, b in zip(times, times[1:])] + [end]
        return sum((hi - lo) * REF_PROBE_S / p
                   for lo, hi, (_, p) in zip(edges, edges[1:], self.samples))


def main() -> int:
    record_path, rest = sys.argv[1], sys.argv[2:]
    split = rest.index("--") if "--" in rest else len(rest)
    options, argv = rest[:split], rest[split + 1:]
    spans_path = options[options.index("--spans") + 1] if "--spans" in options else None

    sys.path.insert(0, SRC)
    import virfock.cli

    if not os.path.abspath(virfock.cli.__file__).startswith(SRC + os.sep):
        print(f"virfock imported from {virfock.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    ready = time.perf_counter()
    setup_scale = REF_PROBE_S / statistics.median(probe() for _ in range(SETUP_PROBES))
    if "--setup-only" in options:
        with open(record_path, "w") as fh:
            json.dump({"ready": ready, "setup_scale": setup_scale}, fh)
        return 0
    tracer = None
    if spans_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with SpeedProbe() as speed:
        start = time.perf_counter()
        rc = virfock.cli.main(argv)
        end = time.perf_counter()
    sys.stdout.flush()
    record = {"ready": ready, "main_s": end - start,
              "ref_main_s": speed.reference_seconds(start, end), "setup_scale": setup_scale,
              "rc": rc, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        record["layers"] = tracer.layers()
        record["absent"] = tracer.absent
        tracer.write_spans(spans_path)
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
