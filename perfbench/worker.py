"""One workload in a fresh interpreter: set up, then time passes.

    python3 perfbench/worker.py setup|measure --root DIR --workdir DIR
        --out FILE --workload NAME --seed N [--seconds S] [--trace 0|1]
        [--spans FILE]

``setup`` imports centrekit from DIR/src, builds the workload's inputs and
reports how long that took.  ``measure`` does the same, then runs passes
over the workload's scans until another pass would likely overrun
``--seconds`` (at least MIN_PASSES), checking every scan against its
golden.  The result goes to ``--out`` as JSON, because the CLI requests own
stdout.  With ``--trace 1`` it includes the per-layer metrics, and the
spans of the first pass go to ``--spans``.

Reported times are corrected for how fast the machine ran Python at the
time (see Sampler): on a shared host the same pass can take up to twice as
long for minutes at a time while another tenant loads the core.  The
uncorrected wall-clock times are reported too.

Only sys, os, gc, signal and time are imported before the set-up clock
starts, so the set-up time includes every module centrekit itself pulls in.
"""

import gc
import os
import signal
import sys
import time

MIN_PASSES = 2
SAMPLE_EVERY_S = 0.05
REF_PROBE_S = 0.0004  # the probe's time on the defining machine with its core to itself
MIN_PROBES = 6


class Sampler:
    """Times a fixed sub-millisecond task every SAMPLE_EVERY_S, from SIGALRM.

    The task (string keys into a dict) runs between bytecodes of whatever is
    being measured, with the collector off.  It never calls centrekit, so
    no change to the library can move it; how long it takes says how fast
    the machine ran Python at that moment.  Of the probes tried, this one
    tracked the library's slow-downs best: over 22 passes of the lang(ab,2)
    duoidal scan, the coefficient of variation fell from 0.124 to 0.050.
    """

    def __init__(self):
        self.at, self.took = [], []

    def probe(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        d = {}
        for i in range(1500):
            d[str(i)] = i
        self.took.append(time.perf_counter() - t)
        self.at.append(t)
        if enabled:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def corrected(self, t0: float, t1: float) -> float:
        """The interval [t0, t1) in reference seconds.

        That is the interval minus the probe time inside it, times
        REF_PROBE_S over the mean probe time around it.  A short interval
        borrows the nearest probes, so that at least MIN_PROBES count.
        """
        inside = [i for i, t in enumerate(self.at) if t0 <= t < t1]
        if inside:
            lo, hi = inside[0], inside[-1] + 1
        else:
            lo = hi = next((i for i, t in enumerate(self.at) if t >= t0), len(self.at))
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        mean = sum(self.took[lo:hi]) / (hi - lo)
        work = (t1 - t0) - sum(self.took[i] for i in inside)
        return work * REF_PROBE_S / mean


def _options(argv):
    if len(argv) % 2 != 1 or argv[0] not in ("setup", "measure"):
        raise SystemExit(__doc__)
    return argv[0], dict(zip(argv[1::2], argv[2::2]))


def _import_centrekit(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import centrekit

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(centrekit.__file__).startswith(src + os.sep):
        raise SystemExit(f"centrekit was imported from {centrekit.__file__}, not {src}")
    return centrekit


def _measure(scans, workload, seconds, traced, spans_path, sampler):
    import resource

    import workloads

    spans = layers = None
    if traced:
        from layers import Layers
        from spans import Spans

        spans = Spans()
        layers = Layers(spans)
        layers.install()
        workload_span = spans.name_id(f"workload {workload}")
        scan_spans = [spans.name_id(f"scan {scan.key}") for scan in scans]

    intervals, checks_per_pass, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        if traced:
            spans.enter(workload_span)
        times, checks = [], 0  # times: (start, end) of each scan
        for i, scan in enumerate(scans):
            # start each scan from a collected heap, as a fresh CLI process
            # would, so one scan's garbage is not traversed in the next
            gc.collect()
            if traced:
                spans.enter(scan_spans[i])
            t = time.perf_counter()
            try:
                code, text = scan.run()
            except Exception as exc:  # a raising scan is a failed verdict, not a crash
                code, text = exc, None
            times.append((t, time.perf_counter()))
            if traced:
                spans.exit()
                layers.scan_done()
            attempted += 1
            if text is None:
                failures.append(f"{scan.key}: raised {code!r}")
                continue
            digest, n = workloads.verdict(code, text)
            checks += n
            if scan.expected is None:
                failures.append(f"{scan.key}: no golden")
            elif digest != scan.expected:
                failures.append(f"{scan.key}: verdict digest differs from golden")
        if traced:
            spans.exit()
            spans.keep = False
        intervals.append(times)
        checks_per_pass.append(checks)
        elapsed = time.perf_counter() - start
        if len(intervals) >= MIN_PASSES and elapsed * (1 + 1 / len(intervals)) > seconds:
            break
    sampler.stop()
    for _ in range(MIN_PROBES):
        sampler.probe()

    result = {
        "scan_s": [[sampler.corrected(t0, t1) for t0, t1 in p] for p in intervals],
        "wall_s": [[t1 - t0 for t0, t1 in p] for p in intervals],
        "checks_per_pass": checks_per_pass,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        result["layers"] = layers.metrics(len(intervals))
        result["spans_per_pass"] = sum(spans.count) / len(intervals)
        spans.write(spans_path)
    return result


def main(argv):
    mode, opt = _options(argv)
    root, workdir = opt["--root"], opt["--workdir"]
    workload, seed = opt["--workload"], int(opt["--seed"])
    os.chdir(workdir)

    sampler = Sampler()
    for _ in range(MIN_PROBES):
        sampler.probe()
    sampler.start()
    t0 = time.perf_counter()
    centrekit = _import_centrekit(root)
    import workloads

    scans = workloads.prepare(workload, centrekit, root, workdir, seed)
    t1 = time.perf_counter()
    result = {}
    if mode == "measure":
        result.update(_measure(scans, workload, float(opt["--seconds"]),
                               opt.get("--trace") == "1", opt.get("--spans"), sampler))
    else:
        sampler.stop()
        for _ in range(MIN_PROBES):
            sampler.probe()
    result["setup_s"] = sampler.corrected(t0, t1)
    result["setup_wall_s"] = t1 - t0
    result["probe_s"] = sorted(sampler.took)[len(sampler.took) // 2]
    import json

    with open(opt["--out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
