"""centrekit benchmark: time-to-verdict on the laws, duoidal and centre-cli workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
./src, never from an installed copy.  Every measurement happens in a fresh
interpreter (perfbench/worker.py), one workload per interpreter, so heap
state never carries over between workloads and the memory figure belongs
to one workload.  Load is a closed loop: one process, one scan at a time.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.  Set-up
time is the median of SETUP_SAMPLES fresh interpreters; the other metrics
come from one interpreter that runs passes for S seconds.

--trace 1 prints the per-layer metrics.  An untraced interpreter and a
traced one each get S/2 seconds; the traced one wraps every layer's public
calls in spans (perfbench/layers.py) and writes the spans of its first pass
to .perfbench_out/.  The difference of their verdict_s is the tracing
overhead.

Every time is corrected for the machine's speed while it was measured
(worker.Sampler) and is in reference seconds; the human-readable lines also
give the uncorrected wall-clock pass and set-up times.

Human-readable lines come first; the last line of stdout is the JSON result.
Exits 2 without a result when the checkout or a worker is broken.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from statistics import median

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def run_worker(mode, args, workdir, seconds=0.0, traced=False):
    """Run one fresh interpreter and return the JSON it wrote."""
    os.makedirs(workdir)
    out = os.path.join(workdir, "result.json")
    cmd = [sys.executable, WORKER, mode, "--root", ROOT, "--workdir", workdir, "--out", out,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if traced else "0"]
    if traced:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans")]
    env = dict(os.environ)
    env.pop("CENTREKIT_FIXTURES", None)
    # the seed also picks the hash seed, so goldens are checked under many
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker failed ({proc.returncode}):\n{proc.stderr.strip()}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def scan_medians(run):
    """Each scan's median time over the passes, in pass order."""
    return [median(times) for times in zip(*run["scan_s"])]


def end_to_end(measured, setups):
    scans = scan_medians(measured)
    verdict_s = sum(scans)
    latency_ms = [t * 1000 for t in scans]
    return {
        "setup_s": median(s["setup_s"] for s in setups),
        "verdict_s": verdict_s,
        "checks_per_s": median(measured["checks_per_pass"]) / verdict_s,
        "request_ms.p50": nearest_rank(latency_ms, 0.5),
        "request_ms.p90": nearest_rank(latency_ms, 0.9),
        "peak_rss_mb": measured["peak_rss_mb"],
        "ok_share": 1 - measured["failed"] / measured["attempted"],
    }


def per_layer(untraced, traced, spec):
    plain, slow = sum(scan_medians(untraced)), sum(scan_medians(traced))
    listed = {m["name"] for m in spec}
    values = dict(traced["layers"])
    values.update({
        "trace.verdict_s": slow,
        "trace.untraced_verdict_s": plain,
        "trace.overhead_s": slow - plain,
        "trace.overhead_share": (slow - plain) / plain,
        "trace.spans_per_pass": traced["spans_per_pass"],
    })
    other = sum(v for k, v in values.items() if k.startswith("law.") and k not in listed)
    values["law.other.s"] = values.get("law.other.s", 0.0) + other
    for name in listed:
        # a law no scan emitted this run took no time
        if name.startswith("law.") and name not in values:
            values[name] = 0.0
    return values


def describe(run, label):
    wall = sum(median(times) for times in zip(*run["wall_s"]))
    print(f"{label}: {len(run['scan_s'])} passes of {len(run['scan_s'][0])} scans; "
          f"wall-clock pass {wall:.4g} s, set-up {run['setup_wall_s']:.4g} s; "
          f"median probe {run['probe_s'] * 1e6:.0f} us")


def print_result(runs, metrics, spec):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for line in r["failures"]:
            print(f"FAILED  {line}")
    out = {}
    for m in spec:
        if m["name"] not in metrics:
            raise BenchError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"failed_share = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "centrekit", "__init__.py")):
        print(f"error: no centrekit source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    base = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            plain = run_worker("measure", args, os.path.join(base, "untraced"), args.seconds / 2)
            traced = run_worker("measure", args, os.path.join(base, "traced"), args.seconds / 2,
                                traced=True)
            describe(plain, "untraced")
            describe(traced, "traced")
            print_result([plain, traced], per_layer(plain, traced, spec["per_layer"]),
                         spec["per_layer"])
        else:
            # set-up samples straddle the measurement, so one slow moment
            # of the machine does not decide their median
            setup = [os.path.join(base, f"setup{i}") for i in range(SETUP_SAMPLES - 1)]
            half = len(setup) // 2
            setups = [run_worker("setup", args, d) for d in setup[:half]]
            measured = run_worker("measure", args, os.path.join(base, "measure"), args.seconds)
            setups.append(measured)
            setups += [run_worker("setup", args, d) for d in setup[half:]]
            describe(measured, "measured")
            print_result([measured], end_to_end(measured, setups), spec["end_to_end"])
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(base))
        except OSError:
            pass  # another run is still using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
