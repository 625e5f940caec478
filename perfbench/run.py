"""crkit benchmark: one-shot ``crkit`` commands, timed end to end.

    python3 perfbench/run.py --workload family-sweep|analyze-files|all
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ``src/``.
Load model: a closed loop with one client.  Every op is a fresh
``crkit ... --format json`` process and only one runs at a time, so each op
pays interpreter start, imports and the library's per-process construction,
as a user's command does.

``--trace 0`` times the workload with nothing inside the program touched and
prints the end-to-end metrics.  Op times are the CPU seconds (user + sys,
from ``wait4``) of each ``crkit`` process, so time the process spent waiting
for a CPU of the shared host is not in them; the wall-clock figures of the
same ops are in the report line.  ``--trace 1`` runs the op list once plainly
and once under ``tracer.py``, checks the two stdouts are byte-identical, and
prints the per-layer metrics.  Either way every op's exit code and output
are checked against the oracles in ``oracles.py``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it (``# report``)
carries what is not a metric: the failure ratio, per-op failures, the
wall-clock sweep_s, op_gmean_s and op_top_s, the median and tail of all op
CPU samples pooled, and the host probe timed at the start and end of the
run.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import corpus
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

CRKIT = [sys.executable, "-c", "import sys; from crkit.cli import main; sys.exit(main())"]
TRACER = [sys.executable, os.path.join(HERE, "tracer.py")]

# A timed run starts another round while it would end by about --seconds
# (half a round late at most), and makes at least MIN_ROUNDS.  It sets up
# once before each round, so that setup_s (the median) sees the same host
# phases as the ops do.
MIN_ROUNDS = 2
RUN_BUDGET_S = 170.0  # every op is killed past this, so a run ends within 180 s

# family-sweep draws each entry's orientation (p,q) or (q,p) from the seed.
# Sizes are fixed; the orientation moves an entry's cost by up to about 12%,
# and a seed's whole round by less than 6%.
FAMILY_SWEEP = (
    ("quadric", (2, 1)), ("quadric", (2, 2)), ("quadric", (3, 2)),
    ("quadric", (4, 2)), ("quadric", (3, 3)), ("quadric", (4, 3)),
    ("sp_quadric", (2, 1)), ("twisted", (3,)), ("twisted", (4,)),
)


class Op:
    def __init__(self, key, args, check, files=(), pair=None):
        self.key = key          # stable id within the workload
        self.args = args        # crkit argv
        self.check = check      # (code, stdout) -> list of problems
        self.files = files      # input files, for fileio.bytes_in
        self.pair = pair        # key of the canonical op this must match


def make_ops(workload, seed, workdir):
    rng = random.Random(f"{workload}/{seed}")
    if workload == "family-sweep":
        specs = [("all", ["catalog", "verify", "all"])]
        for family, params in FAMILY_SWEEP:
            if len(params) == 2 and rng.random() < 0.5:
                params = params[::-1]
            name = f"{family}({','.join(map(str, params))})"
            specs.append((family + str(sorted(params)), ["catalog", "verify", name]))
        return [Op(key, s + ["--format", "json"],
                   lambda code, out, a=s: oracles.check_catalog(a, code, out))
                for key, s in specs]
    if workload == "analyze-files":
        ops = []
        for item in corpus.build(seed, os.path.join(workdir, "corpus")):
            stem = os.path.splitext(os.path.basename(item["file"]))[0]
            rel = os.path.relpath(item["file"], ROOT)
            ops.append(Op(stem, ["analyze", rel, "--format", "json"],
                          lambda code, out, o=item["oracle"]: oracles.check_analyze(o, code, out),
                          files=(item["file"],), pair=item["pair"]))
        return ops
    raise SystemExit(f"unknown workload {workload!r}")


Proc = collections.namedtuple("Proc", "wall code out err rss_kb cpu")


def run_process(cmd, env, deadline):
    """Wall time, exit code, output, peak RSS and CPU time of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, proc.returncode, out, err[0], usage.ru_maxrss,
                usage.ru_utime + usage.ru_stime)


def host_probe():
    """Seconds for a fixed pure-Python exact-arithmetic loop (not a metric)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 60000):
        acc += Fraction(k % 7 - 3, k % 11 + 1)
    return round(time.perf_counter() - t0, 6)


class Result:
    """Every op executed, with the problems its oracle found."""

    def __init__(self):
        self.executed = []   # (key, problems)
        self.notes = []      # benchmark-side faults: they make the run incorrect

    def record(self, op, code, out):
        problems = op.check(code, out)
        self.executed.append((op.key, problems))
        return problems

    @property
    def failures(self):
        return [(k, p) for k, p in self.executed if p]


def check_pairs(ops, outputs):
    """Canonical and rebased inputs must give identical rows (path aside).

    outputs maps an op key to (stdout, problems of that execution); a
    mismatch is added to the rebased op's problems.
    """
    for op in ops:
        if op.pair is None or op.key not in outputs or op.pair not in outputs:
            continue
        out, problems = outputs[op.key]
        if oracles.rows_without_target(out) != oracles.rows_without_target(outputs[op.pair][0]):
            problems.append(f"rows differ from {op.pair}")


def setup(workload, seed, env, deadline):
    """Generate the inputs and warm the interpreter's bytecode cache.

    Returns the ops and the CPU seconds this took: this process's own for
    the inputs, plus the warm-up process's.
    """
    workdir = os.path.join(WORK, workload)
    t0 = time.process_time()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = make_ops(workload, seed, workdir)
    warm = run_process(CRKIT + ["--help"], env, deadline)
    if warm.code != 0:
        raise SystemExit(f"warm-up failed: {warm.err.decode(errors='replace')}")
    return ops, time.process_time() - t0 + warm.cpu


def measure(set_up, env, seconds, deadline, rng, result):
    """Time shuffled passes over the ops for `seconds`, set_up() before each.

    set_up() builds the inputs afresh and returns the op list.  Returns
    round walls, round CPU times, each op's (wall, CPU) samples by op key,
    and the largest peak RSS of any op process.
    """
    round_walls, round_cpu, latencies, peak_kb = [], [], {}, 0
    outputs = {}
    start = time.monotonic()
    while len(round_walls) < MIN_ROUNDS or (
            time.monotonic() - start + statistics.fmean(round_walls) / 2 < seconds):
        ops = set_up()
        order = list(ops)
        rng.shuffle(order)
        cpu = 0.0
        t0 = time.perf_counter()
        for op in order:
            if time.monotonic() > deadline:
                result.notes.append("run budget exhausted before the last round")
                return round_walls, round_cpu, latencies, peak_kb
            p = run_process(CRKIT + op.args, env, deadline)
            latencies.setdefault(op.key, []).append((p.wall, p.cpu))
            cpu += p.cpu
            peak_kb = max(peak_kb, p.rss_kb)
            outputs[op.key] = (p.out, result.record(op, p.code, p.out))
        round_walls.append(time.perf_counter() - t0)
        round_cpu.append(cpu)
        check_pairs(ops, outputs)
        outputs = {}
    return round_walls, round_cpu, latencies, peak_kb


# Per-layer self-time metrics: metric -> (layer module, span names or None for
# every span of the layer, span names excluded).
SELF_TIME = {
    "cli.main_s": ("cli", None, ()),
    "catalog.build_s": ("catalog", None, ("catalog.verify_entry",)),
    "catalog.verify_s": ("catalog", ("catalog.verify_entry",), ()),
    "complexify.model_s": ("complexify", ("complexify.OrbitModel.__init__",), ()),
    "complexify.induced_cr_s": ("complexify", ("complexify.induced_cr_pair",), ()),
    "complexify.fibration_s": ("complexify", ("complexify.anticanonical_fibration",
                                              "complexify.cr_normalizer_algebra"), ()),
    "cr.axioms_s": ("cr", ("cr.check_cr_pair",), ()),
    "cr.levi_s": ("cr", ("cr.levi_form", "cr.levi_signature", "cr.cr_type"), ()),
    "globalize.verdict_s": ("globalize", None, ("globalize.fine_classification_checks",)),
    "globalize.fine_class_s": ("globalize", ("globalize.fine_classification_checks",), ()),
    "fileio.load_s": ("fileio", None, ()),
    "algebra.validate_s": ("algebra", ("algebra.validate", "algebra.validate_tensor"), ()),
    "algebra.structure_s": ("algebra", None, ("algebra.validate", "algebra.validate_tensor")),
    "linalg.rref_s": ("linalg", ("linalg.rref",), ()),
    "linalg.reduce_s": ("linalg", ("linalg.reduce_mod", "linalg.in_span",
                                   "linalg.coefficients_in_span"), ()),
    "linalg.congruence_s": ("linalg", ("linalg.congruence_diagonalize",
                                       "linalg.signature_of_symmetric"), ()),
}
# Layers whose metrics above leave some spans out get a whole-layer total too.
WHOLE_LAYERS = ("complexify", "cr", "linalg")
# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "cli.records", "catalog.entries_built", "complexify.models_built",
    "cr.levi_form_calls", "fileio.bytes_in", "algebra.bracket_calls",
    "algebra.radical_calls", "linalg.rref_calls", "linalg.rref_cells",
    "linalg.reduce_calls", "linalg.nullspace_calls", "linalg.max_bits",
    "scalars.gaussian_ops",
)


def self_times(spans):
    """Per-span-name self time: duration minus child spans and tool time."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op, _tool in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _parent, _op, tool), kids in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - kids - tool
    return out


def layer_metrics(records, traced_wall, plain_wall, stdout_lines, bytes_in):
    """Per-layer metrics of one traced round from the tracer's records."""
    selft, calls = {}, {}
    counts = {}
    cells = nonzero = max_bits = 0
    start_s = 0.0
    for rec, wall in zip(records, traced_wall):
        spans = rec["spans"]
        for name, s in self_times(spans).items():
            selft[name] = selft.get(name, 0.0) + s
        for span in spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        for k, v in rec["counts"].items():
            counts[k] = counts.get(k, 0) + v
        cells += rec["rref_cells"]
        nonzero += rec["rref_nonzero"]
        max_bits = max(max_bits, rec["max_bits"])
        main = [s for s in spans if s[0] == "cli.main" and s[3] == -1]
        start_s += wall - rec["wrap_s"] - rec["dump_s"] - sum(s[2] - s[1] for s in main)

    def sum_self(layer, names, exclude):
        return sum(v for k, v in selft.items()
                   if k.split(".")[0] == layer and (names is None or k in names)
                   and k not in exclude)

    def n(*names):
        return sum(calls.get(x, 0) + counts.get(x, 0) for x in names)

    m = {"cli.start_s": start_s}
    for metric, (layer, names, exclude) in SELF_TIME.items():
        m[metric] = sum_self(layer, names, exclude)
    for layer in WHOLE_LAYERS:
        m[f"{layer}.self_s"] = sum_self(layer, None, ())
    m.update({
        "cli.records": stdout_lines,
        "catalog.entries_built": n("catalog.CatalogEntry.__init__"),
        "complexify.models_built": n("complexify.OrbitModel.__init__"),
        "cr.levi_form_calls": n("cr.levi_form"),
        "fileio.bytes_in": bytes_in,
        "algebra.bracket_calls": n("algebra.LieAlgebra.bracket"),
        "algebra.radical_calls": n("algebra.radical"),
        "linalg.rref_calls": n("linalg.rref"),
        "linalg.rref_cells": cells,
        "linalg.rref_density": nonzero / cells if cells else 0.0,
        "linalg.reduce_calls": n("linalg.reduce_mod", "linalg.in_span",
                                 "linalg.coefficients_in_span"),
        "linalg.nullspace_calls": n("linalg.left_nullspace"),
        "linalg.max_bits": max_bits,
        "scalars.gaussian_ops": n("scalars.gaussian_ops"),
        "trace.overhead_s": sum(traced_wall) - plain_wall,
    })
    return m


def traced_round(workload, ops, env, deadline, rng, result):
    """One plain round, then the same ops under the tracer; per-layer metrics."""
    order = list(ops)
    rng.shuffle(order)
    plain = {}
    for op in order:
        p = run_process(CRKIT + op.args, env, deadline)
        plain[op.key] = (p.wall, p.out, result.record(op, p.code, p.out))
    check_pairs(ops, {k: (v[1], v[2]) for k, v in plain.items()})
    tdir = os.path.join(WORK, workload, "spans")
    os.makedirs(tdir, exist_ok=True)
    records, walls, lines = [], [], 0
    for op_id, op in enumerate(order):
        path = os.path.join(tdir, f"{op_id}.json")
        p = run_process(TRACER + [path, str(op_id), "--"] + op.args, env, deadline)
        result.record(op, p.code, p.out)
        if p.out != plain[op.key][1]:
            result.notes.append(f"traced stdout differs from untraced: {op.key}")
        try:
            with open(path, encoding="utf-8") as fh:
                saved = json.load(fh)
        except (OSError, ValueError) as exc:
            result.notes.append(f"no trace from {op.key}: {exc}")
            continue
        saved["trace"]["dump_s"] = saved["dump_s"]
        records.append(saved["trace"])
        os.remove(path)
        walls.append(p.wall)
        lines += len(p.out.splitlines())
    bytes_in = sum(os.path.getsize(f) for op in ops for f in op.files)
    plain_wall = sum(v[0] for v in plain.values())
    return layer_metrics(records, walls, plain_wall, lines, bytes_in)


def declared_units(trace):
    """Metric name -> unit, from BENCHMARK.json (per_layer when tracing)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def op_summary(samples):
    """Sweep, typical op and costliest ops from each op's median over the rounds.

    Taking each op's median first means a burst of host contention costs one
    sample, not a round.  On a workload whose ops differ in cost by 10x, a
    percentile of the pooled samples jumps from one op to another between
    seeds; the geometric mean and the top-quarter mean of the per-op medians
    move smoothly with each op's cost instead.
    """
    medians = sorted(statistics.median(v) for v in samples.values())
    top = medians[-max(1, len(medians) // 4):]
    return {"sweep": sum(medians), "gmean": statistics.geometric_mean(medians),
            "top": statistics.fmean(top)}


def pooled(samples):
    """Median and tail of all op samples together, for the report.

    The tail is the highest percentile with at least 10 samples beyond it.
    """
    xs = sorted(x for v in samples.values() for x in v)
    n = len(xs)
    k = n - 11 if n > 10 else n - 1
    return {"p50": statistics.median(xs), "tail": xs[k],
            "tail_percentile": round(100.0 * (k + 1) / n, 2), "samples": n}


def run_workload(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    env = dict(os.environ, PYTHONPATH=SRC)
    probe_start = host_probe()
    rng = random.Random(f"order/{workload}/{seed}")
    result = Result()
    report = {"workload": workload, "seed": seed}
    if trace:
        ops, _ = setup(workload, seed, env, deadline)
        metrics = traced_round(workload, ops, env, deadline, rng, result)
        report["counts"] = {k: metrics[k] for k in EXACT_COUNTS}
    else:
        setup_times = []

        def set_up():
            ops, took = setup(workload, seed, env, deadline)
            setup_times.append(took)
            return ops

        walls, cpu, per_op, peak_kb = measure(set_up, env, seconds, deadline, rng, result)
        cpu_samples = {k: [c for _, c in v] for k, v in per_op.items()}
        cpu_s = op_summary(cpu_samples)
        wall_s = op_summary({k: [w for w, _ in v] for k, v in per_op.items()})
        metrics = {
            "sweep_cpu_s": cpu_s["sweep"],
            "op_cpu_gmean_s": cpu_s["gmean"],
            "op_cpu_top_s": cpu_s["top"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        report.update(rounds=len(walls), ops_per_round=len(per_op), setups=len(setup_times),
                      sweep_s=wall_s["sweep"], op_gmean_s=wall_s["gmean"], op_top_s=wall_s["top"],
                      pooled_cpu_s=pooled(cpu_samples),
                      round_walls_s=[round(w, 4) for w in walls],
                      round_cpu_s=[round(c, 4) for c in cpu],
                      op_median_cpu_s={k: round(statistics.median([c for _, c in v]), 4)
                                       for k, v in sorted(per_op.items())})
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    failed_ops = len(result.failures)
    report.update(
        fail_ratio=failed_ops / len(result.executed) if result.executed else 1.0,
        failures=[f"{k}: {'; '.join(p)}" for k, p in result.failures],
        notes=result.notes,
        host_probe_s={"start": probe_start, "end": host_probe()},
        elapsed_s=round(time.monotonic() - start, 3),
    )
    shutil.rmtree(os.path.join(WORK, workload), ignore_errors=True)
    return {
        "correct": failed_ops == 0 and not result.notes,
        "attempted": len(result.executed),
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, report


WORKLOADS = ("family-sweep", "analyze-files")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "crkit", "cli.py")):
        print(f"error: no crkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out, report = run_workload(name, args.seed, args.seconds, args.trace)
        for metric, v in out["metrics"].items():
            print(f"{name:14s} {metric:26s} {v['value']:14.6g} {v['unit']}")
        for key, unit in (("sweep_s", "s"), ("op_gmean_s", "s"), ("op_top_s", "s"),
                          ("fail_ratio", "ratio")):
            if key in report:
                print(f"{name:14s} {key:26s} {report[key]:14.6g} {unit} (report)")
        print("# report " + json.dumps(report, sort_keys=True))
        if len(names) == 1:
            summary = out
        else:
            summary["correct"] = summary["correct"] and out["correct"]
            summary["attempted"] += out["attempted"]
            summary["failed"] += out["failed"]
            summary["metrics"].update({f"{name}/{k}": v for k, v in out["metrics"].items()})
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
