"""istrata benchmark: one workload, one run.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout: the program is imported from ``src/``
there.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics of ``BENCHMARK.json``, timed in reference seconds (``speed.py``);
with ``--trace 1`` it carries the per-layer metrics, from ops that each run
once untraced and once traced.  The exit code is 0 only when every op's
result checked out.  The full result, with provenance and (traced) the
spans, goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import speed
from tracer import MODULES, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

COUNTER_INDEX = {"calls": 0, "self_s": 2, "out": 3}
TAIL_BEYOND = 10  # samples required beyond the tail percentile


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "istrata").glob("*.py")))


def provenance(args, workload_cls):
    digest = hashlib.sha256()
    for p in sorted((SRC / "istrata").glob("*.py")):
        digest.update(p.name.encode() + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "clients": 1,
        "loop": "closed",
        "op_cycle": workload_cls.cycle,
        "probe": {"interval_s": speed.INTERVAL_S, "chunk_ref_s": speed.CHUNK_REF_S}
        if not args.trace else None,
    }


def tail(xs):
    """(value, percentile, samples beyond) at the highest nearest-rank
    percentile of the sorted list ``xs`` with TAIL_BEYOND samples beyond
    it, never below the median."""
    n = len(xs)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return xs[rank - 1], 100.0 * rank / n, n - rank


# metrics that only some workloads produce read 0 on the others
DEFAULT_EXTRAS = {
    "cli.import_s": 0.0,
    "lambda.total_s": 0.0,
    "lambda.lll_share": 0.0,
    "lambda.rat21.total_s": 0.0,
    "lambda.rat21.lll_s": 0.0,
    "lambda.rat21.short_vectors_s": 0.0,
    "lambda.rat21.decompose_s": 0.0,
}


class Run:
    def __init__(self, workload, seconds):
        self.w = workload
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.selftest = None
        self.latencies = []  # (op kind, reference s, wall s), untraced ops in run order

    def fail(self, op, message):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append({"op": repr(op)[:300], "error": message[:2000]})

    def timed(self, op, tracer=None):
        """(reference s, wall s, result, error) of one op.  Reference
        seconds need a probing run; otherwise both are wall seconds."""
        probe = speed.Probe(self.w.probing and self.w.in_process)
        start = time.perf_counter()
        try:
            with probe:
                result = self.w.execute(op, tracer)
        except Exception:
            outer = time.perf_counter() - start
            return outer, outer, None, traceback.format_exc()
        outer = time.perf_counter() - start
        ref, wall = speed.reference(outer, self.w.collect(op, tracer, probe.measure))
        return ref, wall, result, None

    def check(self, op, result):
        """Mismatches of one result; runs the checker self-test on the first
        passing op."""
        expected = self.w.expected(op)
        try:
            observed = self.w.observed(op, result)
        except Exception:
            return [traceback.format_exc()]
        problems = checks.compare(expected, observed)
        if not problems and self.selftest is None:
            self.selftest = checks.self_test(expected, observed)
        return problems

    def loop(self, step):
        """Call ``step(op)`` until the time is up, stopping on a cycle
        boundary; ``step`` returns a list of problems."""
        start = time.perf_counter()
        for op in self.w.ops():
            problems = step(op)
            self.attempted += 1
            if problems:
                self.fail(op, "; ".join(problems))
            if (op.index + 1) % self.w.cycle == 0 and time.perf_counter() - start >= self.seconds:
                break

    def untraced(self):
        self.w.setup()

        def step(op):
            ref, wall, result, err = self.timed(op)
            self.latencies.append((op.kind, ref, wall))
            return [err] if err else self.check(op, result)

        self.loop(step)
        figures = {}
        for unit, col in (("ref", 1), ("wall", 2)):
            ops = sorted(lat[col] for lat in self.latencies)
            value, pct, beyond = tail(ops)
            setups = [getattr(m, unit + "_s") for m in self.w.setups]
            figures[unit] = {
                "setup_s": statistics.median(setups),
                "op_s_p50": statistics.median(ops),
                "op_s_tail": value,
                "ops_per_s": len(ops) / sum(ops),
            }
        metrics = dict(figures["ref"], peak_rss_mb=self.w.peak_rss_mb())
        info = {
            "ops": len(self.latencies),
            "tail_percentile": pct,
            "tail_samples_beyond": beyond,
            "fail_frac": self.failed / self.attempted,
            "setup_reps": [dataclasses.asdict(m) for m in self.w.setups],
            # the same figures in wall seconds: they move with the host's state
            "wall": figures["wall"],
        }
        return metrics, info

    def traced(self, tracer):
        """Each op runs untraced and traced, in alternating order; both
        results are checked and must be identical."""
        self.w.setup_traced(tracer)
        plain, traced = [], []

        def step(op):
            order = (None, tracer) if op.index % 2 == 0 else (tracer, None)
            outcomes = {}
            for tr in order:
                _, dt, result, err = self.timed(op, tr)
                (plain if tr is None else traced).append(dt)
                outcomes[tr is not None] = (result, err)
            problems = []
            for is_traced, (result, err) in outcomes.items():
                tag = "traced" if is_traced else "untraced"
                problems += [f"{tag}: {p}" for p in ([err] if err else self.check(op, result))]
            if not problems and self.w.identity(outcomes[True][0]) != self.w.identity(
                outcomes[False][0]
            ):
                problems.append("traced and untraced results differ")
            return problems

        self.loop(step)
        n = len(traced)
        table = tracer.counters.get("op", {})
        extras = {
            "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1,
            "src.lines": src_lines(),
            "fail_frac": self.failed / self.attempted,
            **DEFAULT_EXTRAS,
            **self.w.extra_layer_metrics(tracer),
        }

        def layer(name):
            if name in extras:
                return extras[name]
            base, _, suffix = name.rpartition(".")
            idx = COUNTER_INDEX[suffix]
            if base in MODULES:
                rows = [v for k, v in table.items() if k.startswith(base + ".")]
            elif base in tracer.names:
                rows = [table[base]] if base in table else []
            else:
                raise KeyError(f"{name}: no traced function {base}")
            return sum(r[idx] for r in rows) / n

        info = {
            "ops": n,
            "op_s_p50_untraced": statistics.median(plain),
            "op_s_p50_traced": statistics.median(traced),
            "traced_functions": len(tracer.names),
            "binding_sites": len(tracer.sites),
            "cross_module_sites": sum(
                site.split(".")[0] != qual.split(".")[0]
                for site, qual in tracer.module_sites.items()
            ),
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.spans_dropped,
            "fail_frac": self.failed / self.attempted,
        }
        return layer, info


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    code = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "istrata" / "cli.py").is_file():
        print(f"error: no istrata sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}, all")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))

    cls = WORKLOADS[args.workload]
    workload = cls(SRC, args.seed, probing=not args.trace)
    run = Run(workload, args.seconds)
    prov = provenance(args, cls)
    if args.trace:
        tracer = Tracer().install()
        layer, info = run.traced(tracer)
        section = spec["per_layer"]
        metrics = {m["name"]: {"value": layer(m["name"]), "unit": m["unit"]} for m in section}
    else:
        tracer = None
        values, info = run.untraced()
        section = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    info["checker_selftest"] = run.selftest
    correct = run.failed == 0 and run.selftest is True

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {"provenance": prov, "info": info, "metrics": metrics, "failures": run.failures,
            "latencies": run.latencies}
    if tracer is not None:
        full["binding_sites"] = dict(sorted(tracer.module_sites.items()))
    stem.with_suffix(".json").write_text(json.dumps(full, indent=1))
    if tracer is not None:
        with open(stem.with_suffix(".spans.json"), "w") as fh:
            json.dump({"fields": ["op", "span", "parent", "name", "start_s", "end_s"],
                       "spans": tracer.spans, "counters": tracer.counters}, fh)

    print("provenance " + json.dumps(prov))
    print("info " + json.dumps(info))
    for f in run.failures:
        print("failure " + json.dumps(f))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for name, value in info.get("wall", {}).items():
        print(f"wall {name} {value:.6g}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
