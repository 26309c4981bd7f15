"""Benchmark of ncdga: two exact-algebra workloads, checked against
recorded reference outputs.

    python3 bench/run.py --workload complex-II --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --record-reference

With ``--trace 0`` a run repeats whole passes of the workload's item list,
one item after the other in this one thread, and sets the workload up
several times between passes, until ``--seconds`` have passed; the
median set-up is ``setup_s``.  ``--workload all`` runs each workload in a
process of its own, so that ``peak_rss_mb`` is the workload's own.  With
``--trace 1`` it sets up once and runs one pass untraced, then does the
same under the tracer; it prints the per-layer metrics and the tracing
overhead and writes them, with the aggregated span tree, to
``bench-results/``.  The last line of standard output is one JSON object.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
RESULTS = ROOT / "bench-results"
DEFAULT_SECONDS = 55  # run_seconds in BENCHMARK.json
# the tail percentile, fixed so that a faster program, which fits more
# items into a run, still reports the same one; see README
TAIL_PCT = 75
# set-ups per run: at least SETUPS_MIN, and more while they take less than
# SETUPS_BUDGET_S in all, so that cheap set-ups get a steady median
SETUPS_MIN = 5
SETUPS_MAX = 25
SETUPS_BUDGET_S = 3.0

# per-layer metrics: span name -> quantities taken from its spans
LAYER_SPANS = {
    "bench.setup": ("s",),
    "bench.item": ("calls", "s"),
    "ainfinity.mu_eps_case2": ("calls", "s", "self_s"),
    "ainfinity.mu_eps_case1": ("calls", "self_s"),
    "ainfinity.mu_case1": ("calls", "self_s"),
    "ainfinity.candidate_patterns": ("s",),
    "tensor.tensor_product": ("calls", "s"),
    "tensor.adjoint_formula": ("calls", "self_s"),
    "tensor.TensorElement.__mul__": ("calls", "self_s"),
    "tensor.TensorElement.__str__": ("calls", "s"),
    "tensor.DualElement.__str__": ("calls", "s"),
    "algebra.AlgebraElement.__mul__": ("calls", "self_s"),
    "homology.homology": ("s",),
    "homology.kernel_basis": ("s",),
    "homology.bilinearized_complex": ("self_s",),
    "augmentation.Augmentation.check": ("s",),
    "dga.SemifreeDGA.d": ("s",),
    "dsl.parse_dga": ("s",),
    "dsl.parse_augmentation": ("s",),
    "cli.main": ("s", "self_s"),
}
# per-layer metrics read from counters, with their units
LAYER_COUNTERS = {
    "ainfinity.ainfty_residual_case1.calls": "count",
    "ainfinity.patterns.candidate": "count",
    "ainfinity.patterns.full": "count",
    "tensor.TensorElement.__add__.calls": "count",
    "rings.Ring.mul.calls": "count",
    "rings.Ring.add.calls": "count",
    "homology.complex.dim": "count",
    "homology.complex.rank": "count",
    "augmentation.Augmentation.dual.calls": "count",
    "dga.SemifreeDGA.d_component.calls": "count",
    "dga.SemifreeDGA.max_word_arity.calls": "count",
    "report.Report.checks": "count",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, quantities in LAYER_SPANS.items():
        for quantity in quantities:
            units[f"{name}.{quantity}"] = "count" if quantity == "calls" else "s"
    units.update(LAYER_COUNTERS)
    units["ainfinity.patterns.useful_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.spans"] = "count"
    return units


def _import_library():
    """Put the checkout's src/ first on the path and insist that ncdga
    comes from there, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    try:
        import ncdga
    except ImportError as exc:
        raise SystemExit(f"error: cannot import ncdga from {src}: {exc}")
    if not Path(ncdga.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: ncdga was imported from {ncdga.__file__}, not {src}")


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


class Runner:
    def __init__(self, workload, seed: int, reference: dict, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []

    def prepare(self):
        """Generate, write, parse, validate and construct; then warm up
        with one item.  Returns the pass and the time it took."""
        start = perf_counter()
        rng = random.Random(f"{self.workload.name}:{self.seed}")
        specs = self.workload.pass_specs(rng)
        directory = Path(tempfile.mkdtemp(dir=self.workdir))
        items = self.workload.build(specs, directory)
        items[0].call()
        return items, perf_counter() - start

    def run_item(self, item) -> float:
        from workloads import CheckError

        self.attempted += 1
        start = perf_counter()
        try:
            output = item.call()
        except Exception:
            elapsed = perf_counter() - start
            self.failures.append(f"{item.key}: raised\n{traceback.format_exc()}")
            return elapsed
        elapsed = perf_counter() - start
        try:
            digest = item.digest(output)
        except CheckError as exc:
            self.failures.append(f"{item.key}: {exc}")
            return elapsed
        expected = self.reference.get(item.key)
        if digest != expected:
            self.failures.append(f"{item.key}: output {digest!r}, reference {expected!r}")
        return elapsed

    def run_pass(self, items, span=None) -> list[float]:
        if span is None:
            return [self.run_item(item) for item in items]
        out = []
        for item in items:
            with span("bench.item"):
                out.append(self.run_item(item))
        return out

    def measure(self, seconds: float) -> tuple[dict, list[str]]:
        """Set-ups and passes until ``seconds`` have passed.  The set-ups are
        spread evenly over that time: the machine's speed drifts over
        seconds, and set-ups done back to back would see only one moment of
        it.  The first set-up's time sets how many there are.  A pass that
        would end past ``seconds``, judged by the pass before it, is not
        started."""
        setup_times: list[float] = []
        latencies: list[float] = []
        pass_times: list[float] = []
        items = None
        target = SETUPS_MIN
        start = perf_counter()
        while True:
            wall = perf_counter() - start
            if len(setup_times) < target and wall >= len(setup_times) * seconds / target:
                # each set-up starts from the same heap: the last one's
                # objects would otherwise slow the collector down
                items = None
                gc.collect()
                items, elapsed = self.prepare()
                setup_times.append(elapsed)
                if len(setup_times) == 1:
                    target = min(SETUPS_MAX, max(SETUPS_MIN, int(SETUPS_BUDGET_S / elapsed)))
                gc.collect()
                continue
            if pass_times and wall + pass_times[-1] > seconds:
                break
            pass_start = perf_counter()
            latencies.extend(self.run_pass(items))
            pass_times.append(perf_counter() - pass_start)
        latencies.sort()
        beyond = len(latencies) - math.ceil(TAIL_PCT / 100 * len(latencies))
        metrics = {
            "setup_s": statistics.median(setup_times),
            # all items over all passes: the machine has slow and fast
            # phases, and a median over passes would jump between them
            "items_per_s": len(latencies) / sum(pass_times),
            "item_p50_ms": 1000 * nearest_rank(latencies, 50),
            "item_tail_ms": 1000 * nearest_rank(latencies, TAIL_PCT),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes = [
            f"{len(latencies)} items in {len(pass_times)} passes of {len(items)},"
            f" {sum(pass_times):.2f} s of {perf_counter() - start:.2f} s;"
            f" {len(setup_times)} set-ups, {min(setup_times):.3f} to {max(setup_times):.3f} s",
            f"item_tail_ms is p{TAIL_PCT}: {beyond} of {len(latencies)} samples lie beyond it",
        ]
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, notes

    def trace(self) -> tuple[dict, list[str], dict]:
        from tracer import Tracer

        items, setup_plain = self.prepare()
        start = perf_counter()
        self.run_pass(items)
        plain = setup_plain + perf_counter() - start
        items = None
        gc.collect()
        tracer = Tracer()
        with tracer:
            start = perf_counter()
            with tracer.span("bench.setup"):
                items, _elapsed = self.prepare()
            self.run_pass(items, tracer.span)
            traced = perf_counter() - start
        totals = tracer.layer_totals()
        values: dict[str, float] = {}
        for name, quantities in LAYER_SPANS.items():
            row = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for quantity in quantities:
                values[f"{name}.{quantity}"] = row[quantity]
        for name in LAYER_COUNTERS:
            values[name] = tracer.counters[name.removesuffix(".calls")]
        full = values["ainfinity.patterns.full"]
        values["ainfinity.patterns.useful_ratio"] = (
            values["ainfinity.patterns.candidate"] / full if full else 0.0
        )
        values["trace.overhead_ratio"] = traced / plain
        values["trace.spans"] = len(tracer.start)
        units = per_layer_units()
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        notes = [
            f"one set-up and one pass of {len(items)} items: {plain:.3f} s untraced,"
            f" {traced:.3f} s traced, overhead x{traced / plain:.2f}, {len(tracer.start)} spans"
        ]
        detail = {
            "workload": self.workload.name,
            "seed": self.seed,
            "untraced_s": plain,
            "traced_s": traced,
            "overhead_ratio": traced / plain,
            "metrics": metrics,
            "call_tree": tracer.call_tree(),
        }
        return metrics, notes, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict,
                 workdir: Path) -> dict:
    from workloads import WORKLOADS

    runner = Runner(WORKLOADS[name], seed, reference, workdir)
    print(f"workload {name}  seed {seed}  tracing {'on' if trace else 'off'}")
    if trace:
        metrics, notes, detail = runner.trace()
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{name}-seed{seed}-layers.json"
        path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        notes.append(f"per-layer file: {path.relative_to(ROOT)}")
    else:
        metrics, notes = runner.measure(seconds)
    width = max(len(k) for k in metrics)
    for key, metric in metrics.items():
        print(f"  {key:<{width}}  {metric['value']:.6g} {metric['unit']}")
    failed = len(runner.failures)
    print(f"  {'failed_frac':<{width}}  {failed / runner.attempted:.6g}"
          f" ({failed} of {runner.attempted} items)")
    for note in notes:
        print(f"  {note}")
    for failure in runner.failures[:5]:
        print(f"  FAILED {failure}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def record_reference(workdir: Path) -> None:
    """Compute the digest of every bank instance with this checkout's
    library and write reference.json."""
    from workloads import WORKLOADS

    digests = {}
    for workload in WORKLOADS.values():
        directory = Path(tempfile.mkdtemp(dir=workdir))
        for item in workload.build(workload.bank_specs(), directory):
            digests[item.key] = item.digest(item.call())
        print(f"{workload.name}: {len(digests)} digests so far", flush=True)
    REFERENCE.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")


def run_apart(name: str, args) -> dict:
    """One workload in a child process of its own; its lines are passed on
    and its last line, the JSON result, is returned."""
    command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"error: workload {name} exited with {child.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.workload == "all" and not args.record_reference:
        results = {name: run_apart(name, args) for name in WORKLOADS}
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
        print(json.dumps(summary, sort_keys=True))
        return 0
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        if args.record_reference:
            record_reference(workdir)
            return 0
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
