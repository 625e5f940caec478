"""The benchmark's own test: traced counts repeat exactly, and the defect probe.

    python3 perfbench/selfcheck.py [--seed N]

Runs ``run.py --trace 1`` twice per workload with the same seed and fails
(exit 1) if any exact count differs between the two runs, or if either run
reports a traced stdout that differs from the untraced one.

It then runs ``crkit analyze`` on the zero-Killing-diagonal probes of
``corpus.build_zero_diagonal``, checks them against the closed-form Killing
signatures, and prints their ``fail_ratio``.  They are kept out of the timed
workloads, which must be ones on which no op fails; a probe that fails
here fails this test (exit 1) until the defect is fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import corpus
import oracles
from run import CRKIT, SRC, WORK, WORKLOADS, run_process

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def traced_report(workload, seed):
    out = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed), "--trace", "1"],
                         cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    report = json.loads(next(l for l in lines if l.startswith("# report "))[len("# report "):])
    return report


def defect_probe():
    """Problems of each zero-diagonal probe, by file stem."""
    workdir = os.path.join(WORK, "defects")
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        results = {}
        for item in corpus.build_zero_diagonal(workdir):
            rel = os.path.relpath(item["file"], os.path.dirname(HERE))
            p = run_process(CRKIT + ["analyze", rel, "--format", "json"], env,
                            time.monotonic() + 120)
            stem = os.path.splitext(os.path.basename(item["file"]))[0]
            results[stem] = oracles.check_analyze(item["oracle"], p.code, p.out)
        return results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        first, second = traced_report(workload, args.seed), traced_report(workload, args.seed)
        diff = {k: (v, second["counts"].get(k)) for k, v in first["counts"].items()
                if second["counts"].get(k) != v}
        stdout_notes = [n for r in (first, second) for n in r["notes"] if "stdout" in n]
        status = "ok" if not diff and not stdout_notes else "FAIL"
        ok = ok and status == "ok"
        print(f"{workload:14s} {status}  counts={first['counts']}")
        for k, (a, b) in diff.items():
            print(f"  {k}: {a} != {b}")
        for note in stdout_notes:
            print(f"  {note}")
    probe = defect_probe()
    failed = [stem for stem, problems in probe.items() if problems]
    ok = ok and not failed
    print(f"{'defect-probe':14s} {'FAIL' if failed else 'ok'}  "
          f"fail_ratio={len(failed)}/{len(probe)}")
    for stem in failed:
        print(f"  {stem}: {'; '.join(probe[stem])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
