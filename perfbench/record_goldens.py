"""Record the golden verdict digests every benchmark scan is checked against.

    python3 perfbench/record_goldens.py [--write]

Runs each fixed scan once, in this process, against ./src and prints the
goldens as JSON; --write also stores them in perfbench/goldens.json.  Run it
only on a commit whose verdicts are trusted, and under two PYTHONHASHSEED
values to confirm that the digests do not depend on hash order.

Generated centre-cli programs have no stored digest: their expected output
is derived from the per-grade-pair verdicts recorded here from the
reorder.eff fixture, which covers all four pairs of the truth grading.
"""

import json
import os
import shutil
import sys

import workloads


def record(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import centrekit as ck
    import centrekit.cli as cli

    scans = {}
    for key, run in workloads.laws_scans(ck) + workloads.duoidal_scans(ck):
        scans[key] = workloads.verdict(*run())[0]
    workdir = os.path.join(root, ".perfbench_run", "goldens")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "fixtures"))
    for name in workloads.FIXTURES:
        shutil.copyfile(os.path.join(root, "fixtures", name),
                        os.path.join(workdir, "fixtures", name))
    here = os.getcwd()
    os.chdir(workdir)
    try:
        verdicts = {}
        for argv in workloads.fixed_requests():
            code, text = workloads.cli_request(cli, argv)()
            scans[" ".join(argv)] = workloads.verdict(code, text)[0]
            if argv[:2] == ["analyze", "fixtures/reorder.eff"]:
                for e in json.loads(text)["entries"]:
                    verdicts[f"{e['a']},{e['b']}"] = e["verdict"]
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
    if len(verdicts) != 4:
        raise SystemExit(f"reorder.eff no longer covers every grade pair: {verdicts}")
    return {"scans": scans, "analyze_verdicts": verdicts}


def main(argv):
    root = os.path.dirname(workloads.HERE)
    goldens = record(root)
    text = json.dumps(goldens, indent=2, sort_keys=True) + "\n"
    print(text, end="")
    if "--write" in argv:
        with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    main(sys.argv[1:])
