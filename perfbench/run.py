"""Benchmark of the manifold elastic net package `men`, run from a checkout.

    python3 perfbench/run.py --workload fit-face --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15

One process drives the public API and CLI as a closed loop: a single
caller makes each call only after the previous one returned. A run sets
the workload up several times (importing `men` from the checkout's `src`
and building the inputs from the seed), makes one untimed pass under
tracemalloc (warm-up, peak memory, reference outputs), then repeats
timed rounds for `--seconds`. With `--trace 1` it alternates untimed
plain rounds with rounds under span tracing and reports per-layer
metrics. Outputs are checked outside the timed region.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Lines before it describe
the machine and every timing with its sample count. Results and spans
are also written under `.perfbench/` in the checkout. The exit code is
0 only when every round succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from spans import Tracer, layer_metrics, layer_units
from workloads import WORKLOADS, RoundFailed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
# set-up repeats until it has SETUP_MIN_REPS samples and SETUP_MIN_S seconds
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
MIN_ROUNDS = 2
MODULES = ("men.pipeline", "men.lars", "men.evaluation", "men.cli")


def import_men():
    """Import `men` afresh from the checkout's `src` and return it."""
    for name in [m for m in sys.modules if m == "men" or m.startswith("men.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if not (src / "men" / "__init__.py").is_file():
        raise SystemExit(f"no men package under {src}: run from a checkout of the repository")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    men = importlib.import_module("men")
    for name in MODULES:
        importlib.import_module(name)
    return men


def set_up(workload, seed, workdir):
    """Import `men` and build the inputs repeatedly; returns the last
    import, its inputs, and the median set-up time."""
    times = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S:
        start = time.perf_counter()
        men = import_men()
        inputs = workload.setup(men, seed, workdir)
        times.append(time.perf_counter() - start)
    return men, inputs, statistics.median(times)


def machine(seed) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


def describe(name: str, values: list[float], unit: str) -> str:
    """Median with the sample count, plus the highest standard percentile
    that has at least ten samples beyond it, when there are enough."""
    text = f"{name}: median {statistics.median(values):.4f} {unit} over {len(values)} samples"
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (100.0 - q) / 100.0 >= 10:
            return text + f", p{q:g} {np.percentile(values, q):.4f} {unit}"
    return text + " (too few samples for a tail percentile)"


class Run:
    """One workload run: counts attempts and failures, keeps the reference."""

    def __init__(self, workload, men, inputs):
        self.workload = workload
        self.men = men
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.matched = 0
        self.reference = None
        self.problems: list[str] = []

    def round(self):
        """One round; None when it raised or its outputs differ from the
        reference (the first successful round)."""
        self.attempted += 1
        try:
            outcome = self.workload.round(self.men, self.inputs)
        except (self.men.MenError, RoundFailed) as exc:
            self.failed += 1
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None
        if self.reference is None:
            self.reference = outcome
        elif outcome.digest != self.reference.digest:
            self.failed += 1
            self.problems.append("outputs differ from the first round's")
            return None
        self.matched += 1
        return outcome

    def check(self):
        """Check the reference outputs; every round that matched them fails
        with them."""
        if self.reference is None:
            return
        found = self.workload.check(self.men, self.inputs, self.reference)
        if found:
            self.failed += self.matched
            self.problems += found


def timed_rounds(run: Run, seconds: int, tracer: Tracer | None):
    """Repeat rounds for `seconds` (at least MIN_ROUNDS). With a tracer,
    each plain round is followed by a traced one. Returns the plain
    outcomes and the (operation id, outcome) pairs of the traced rounds."""
    plain, traced = [], []
    modules = {m: sys.modules[m] for m in MODULES}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds += 1
        outcome = run.round()
        if outcome is not None:
            plain.append(outcome)
        if tracer is not None:
            with tracer.installed(modules), tracer.operation(rounds):
                outcome = run.round()
            if outcome is not None:
                traced.append((rounds, outcome))
    return plain, traced


def op_time(outcome) -> float:
    return next(iter(outcome.calls.values()))


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    workload, _ = WORKLOADS[name]
    workdir = OUT / "work" / name
    phases = {}
    mark = time.perf_counter()

    def lap(phase):
        nonlocal mark
        now = time.perf_counter()
        phases[phase] = now - mark
        mark = now

    men, inputs, setup_s = set_up(workload, seed, workdir)
    info = machine(seed)
    print("machine:", json.dumps(info), flush=True)
    run = Run(workload, men, inputs)
    lap("setup")
    tracemalloc.start()
    try:
        run.round()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    lap("untimed_pass")
    tracer = Tracer() if trace else None
    plain, traced = timed_rounds(run, seconds, tracer)
    lap("timed_loop")
    run.check()
    lap("checks")
    print("phases:", ", ".join(f"{k} {v:.2f} s" for k, v in phases.items()), flush=True)

    for line in run.problems:
        print("FAILED:", line, flush=True)
    print(f"error_rate: {run.failed / run.attempted:.4f} ({run.failed} of {run.attempted} rounds)")
    metrics = {}
    if plain and (traced or not trace):
        for call in plain[0].calls:
            print(describe(call, [o.calls[call] for o in plain], "s"), flush=True)
        op_s = statistics.median(op_time(o) for o in plain)
        if trace:
            per_op = layer_metrics(tracer.spans, workload.threads)
            for key, unit in layer_units().items():
                values = [per_op.get(op, {}).get(key, 0) for op, _ in traced]
                metrics[key] = {"value": statistics.median(values), "unit": unit}
            traced_op_s = statistics.median(op_time(o) for _, o in traced)
            metrics["trace.op_s"] = {"value": traced_op_s, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced_op_s - op_s, "unit": "s"}
            print_layers(metrics, statistics.median(sum(o.calls.values()) for _, o in traced))
            write_json(OUT / f"spans-{name}-seed{seed}.json", {"machine": info, "spans": tracer.to_json()})
        else:
            round_s = statistics.median(sum(o.calls.values()) for o in plain)
            rate = workload.rate(men, inputs, run.reference)
            metrics = {
                "op_s": {"value": op_s, "unit": "s"},
                "round_s": {"value": round_s, "unit": "s"},
                "peak_mem_mb": {"value": peak_mb, "unit": "MB"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "recognition_rate": {"value": rate, "unit": "fraction"},
            }
    correct = run.failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    write_json(
        OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json",
        {"machine": info, "problems": run.problems, "samples": [o.calls for o in plain], **result},
    )
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def print_layers(metrics, traced_round_s):
    """Self time per module as a share of the traced round time (the
    shares add up to more than 100% when pool threads overlap)."""
    totals: dict[str, float] = {}
    for key, m in metrics.items():
        if key.endswith(".self_s"):
            module = key.split(".", 1)[0]
            totals[module] = totals.get(module, 0.0) + m["value"]
    for module, total in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"layer {module}: self {total:.4f} s, {100 * total / traced_round_s:.1f}% of a traced round")


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")


def run_all(seed, seconds: int, trace: bool) -> int:
    """Every workload in its own process, one after the other."""
    worst = 0
    for name, (_, default_seed) in WORKLOADS.items():
        argv = [sys.executable, __file__, "--workload", name, "--seconds", str(seconds),
                "--trace", str(int(trace)), "--seed", str(default_seed if seed is None else seed)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print("  " + line)
        if lines and proc.returncode == 0:
            for key, m in json.loads(lines[-1])["metrics"].items():
                print(f"  {key}: {m['value']:.6g} {m['unit']}")
        else:
            print(f"  exit code {proc.returncode}: {lines[-1] if lines else 'no output'}")
        worst = max(worst, proc.returncode)
    return 1 if worst else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=int, default=15, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    seed = WORKLOADS[args.workload][1] if args.seed is None else args.seed
    return run_workload(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
