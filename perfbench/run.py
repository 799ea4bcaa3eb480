"""Wall-clock benchmark of negmul, driven in-process through negmul.cli.main.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; negmul is imported from its src/ directory.
One process, one thread, closed loop: each call starts when the previous one
has returned, with stdout captured and checked by perfbench/oracle.py outside
the timed interval. Each call derives its own scalar seed from --seed.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The line before it carries the run's stamp (Python,
nproc, CPU model, git revision, seed, workload order, steal ticks) and the
details behind the metrics. --workload all runs every workload, each in its
own child process, and merges their results as "<workload>.<metric>".
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import calib
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
WARMUP_CALLS = 2
TAIL_BEYOND = 10  # calls that must lie beyond the reported tail percentile

# Set up in a fresh interpreter, so that import work counts however much of
# negmul this process has already imported. Prints the set-up time and the
# calibration block time around it.
SETUP_CODE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import calib
calib.block_seconds()
before = calib.block_seconds()
t0 = time.perf_counter()
import negmul.cli
negmul.cli.build_parser()
seconds = time.perf_counter() - t0
print(seconds, (before + calib.block_seconds()) / 2)
"""


class BenchWorkload:
    """`negmul bench picard --format json` over a fresh seeded sample per call."""

    def __init__(self, name: str, *, bits: int, form: str, samples: int, width: int = 4) -> None:
        self.name, self.bits, self.form, self.samples, self.width = name, bits, form, samples, width
        self.drivers = len(oracle.DRIVERS[form])
        self.runs_per_call = samples * self.drivers

    def argv(self, seed: int) -> list[str]:
        width = ["--width", str(self.width)] if self.form == "wnaf" else []
        return ["bench", "picard", "--bits", str(self.bits), "--form", self.form, *width,
                "--samples", str(self.samples), "--format", "json", "--seed", str(seed)]

    def check(self, rc: int, out: str, seed: int) -> oracle.BenchCheck:
        if rc != 0:
            return oracle.BenchCheck(f"exit code {rc}", 0, self.runs_per_call)
        return oracle.check_bench(out, bits=self.bits, samples=self.samples, form=self.form,
                                  width=self.width, seed=seed)


class VerifyWorkload:
    """`negmul verify --max-n N`: exhaustive, so every call is the same."""

    drivers = oracle.VERIFY_DRIVERS

    def __init__(self, name: str, *, max_n: int) -> None:
        self.name, self.max_n = name, max_n
        self.runs_per_call = oracle.verify_products(max_n)

    def argv(self, seed: int) -> list[str]:
        return ["verify", "--max-n", str(self.max_n)]

    def check(self, rc: int, out: str, seed: int) -> oracle.BenchCheck:
        return oracle.BenchCheck(oracle.check_verify(rc, out, max_n=self.max_n), 0, self.runs_per_call)


WORKLOADS = {
    w.name: w
    for w in (
        BenchWorkload("bench-naf160", bits=160, form="naf", samples=100),
        BenchWorkload("bench-wnaf4096", bits=4096, form="wnaf", samples=4),
        VerifyWorkload("verify-11", max_n=11),
    )
}

# sha256 of the bench JSON at the CLI's default seed 0, as negmul printed it
# when this benchmark was written; a "byte-identical" claim is checked here.
REFERENCE_SHA256 = {
    "bench-naf160": "83f2db0e6c8b585b8be839a9fcf79e8385bca24ae2a6c32f996eaa2d3e225f08",
    "bench-wnaf4096": "5baef3e149b703bf24874ddeefcd19cb08b6b36e343109837a48af12737fab31",
}

def call_seed(seed: int, i: int) -> int:
    """Scalar seed of the i-th call of a run, a 64-bit value derived from the run seed."""
    digest = hashlib.sha256(f"{seed}:{i}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def import_cli():
    sys.path.insert(0, str(SRC))
    try:
        import negmul.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import negmul from {SRC}: {exc}") from None
    if not Path(negmul.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: negmul was imported from {negmul.cli.__file__}, not {SRC}")
    return negmul.cli


def run_call(cli, workload, seed: int):
    """One timed call through cli.main; returns (seconds, oracle verdict, stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(workload.argv(seed))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = None
    seconds = time.perf_counter() - t0
    return seconds, workload.check(rc, buf.getvalue(), seed), buf.getvalue()


class Loop:
    """Closed-loop calls for a fixed wall time; numbers a call across phases."""

    def __init__(self, cli, workload, seed: int) -> None:
        self.cli, self.workload, self.seed = cli, workload, seed
        self.next_call = 0
        self.problems: list[str] = []

    def run(self, seconds: float, tracer=None) -> dict:
        """Calls for `seconds`; each call's time is also scaled by the calibration blocks around it."""
        durations, scaled, runs, failed, repeats, class_runs = [], [], 0, 0, 0, 0
        gc.collect()
        deadline = time.perf_counter() + seconds
        block = calib.block_seconds()
        while not durations or time.perf_counter() < deadline:
            seed = call_seed(self.seed, self.next_call)
            self.next_call += 1
            dt, check, _ = run_call(self.cli, self.workload, seed)
            if tracer is not None:
                tracer.end_call()
            next_block = calib.block_seconds()
            durations.append(dt)
            scaled.append(dt * calib.REFERENCE_S / ((block + next_block) / 2))
            block = next_block
            repeats += check.class_repeats
            class_runs += check.runs
            if check.problem is None:
                runs += self.workload.runs_per_call
            else:
                failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"seed {seed}: {check.problem}")
        return {"durations": durations, "scaled": scaled, "runs": runs, "failed": failed,
                "class_repeats": repeats, "class_runs": class_runs}


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND calls beyond it.

    With fewer than 2 * TAIL_BEYOND + 1 calls this falls back to the median.
    """
    ordered = sorted(durations)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n


def measure_setup(repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """(seconds, scaled seconds) to import negmul.cli and build its parser, in fresh interpreters."""
    times = []
    for _ in range(repeats + 1):  # the first also writes the bytecode caches
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(Path(__file__).parent)],
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, block = map(float, proc.stdout.split())
        times.append((seconds, seconds * calib.REFERENCE_S / block))
    return times[1:]


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs from /proc/stat, None where absent."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_revision() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(workload: str, seed: int, order: list[str]) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_revision": git_revision(),
        "workload": workload,
        "seed": seed,
        "workload_order": order,
        "started_unix": time.time(),
    }


def reference_call(cli, workload) -> dict:
    """Untimed call at the CLI's default seed 0, doubling as a warm-up."""
    _, check, out = run_call(cli, workload, 0)
    digest = hashlib.sha256(out.encode()).hexdigest()
    pinned = REFERENCE_SHA256.get(workload.name)
    return {"problem": check.problem, "sha256": digest,
            "matches_reference": None if pinned is None else digest == pinned}


def timings(runs: int, durations: list[float]) -> dict:
    value, percentile = tail(durations)
    return {"mults_per_s": runs / sum(durations), "call_p50_ms": statistics.median(durations) * 1e3,
            "call_tail_ms": value * 1e3, "call_tail_percentile": percentile, "calls": len(durations)}


def end_to_end(cli, workload, seed: int, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup()
    reference = reference_call(cli, workload) if isinstance(workload, BenchWorkload) else None
    loop = Loop(cli, workload, seed)
    for i in range(WARMUP_CALLS):
        run_call(cli, workload, call_seed(seed, -1 - i))
    r = loop.run(seconds)
    attempted, failed = len(r["durations"]), r["failed"]
    if reference is not None and reference["problem"] is not None:
        attempted, failed = attempted + 1, failed + 1
    scaled = timings(r["runs"], r["scaled"])
    metrics = {
        "mults_per_s": scaled["mults_per_s"],
        "call_p50_ms": scaled["call_p50_ms"],
        "call_tail_ms": scaled["call_tail_ms"],
        "setup_s": statistics.median(s for _, s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_fraction": (attempted - failed) / attempted,
    }
    details = {
        "failed_fraction": failed / attempted,
        "runs_per_call": workload.runs_per_call,
        "drivers": workload.drivers,
        "call_tail_percentile": scaled["call_tail_percentile"],
        "calls": scaled["calls"],
        "wall": {**timings(r["runs"], r["durations"]), "setup_s": statistics.median(w for w, _ in setup)},
        "setup_samples": setup,
        "seed0_bench_json": reference,
        "problems": loop.problems,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, details


def per_layer(cli, workload, seed: int, seconds: float) -> tuple[dict, dict]:
    import spans

    loop = Loop(cli, workload, seed)
    for i in range(WARMUP_CALLS):
        run_call(cli, workload, call_seed(seed, -1 - i))
    plain = loop.run(seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = loop.run(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    n = len(traced["durations"])
    layer = tracer.layer_self()
    counts, own = tracer.counts, tracer.self_s
    # self times at the reference speed of the scaled end-to-end times, per call
    scale = sum(traced["scaled"]) / sum(traced["durations"]) / n
    layer = Counter({k: v * scale for k, v in layer.items()})

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "recoding.self_s": layer["recoding"],
        "recoding.calls": counts["recoding.calls"] / n,
        "recoding.digits": counts["recoding.digits"] / n,
        "algorithms.self_s": sum(v for k, v in layer.items() if k.startswith("algorithms.")),
        **{f"algorithms.{a}.self_s": layer[f"algorithms.{a}"]
           for a in ("baseline", "neg", "online", "neg-dbl-only", "neg-add-only", "window")},
        "algorithms.runs": counts["algorithms.runs"] / n,
        "algorithms.group_ops": counts["algorithms.group_ops"] / n,
        "algorithms.table_ops": counts["algorithms.table_ops"] / n,
        "algorithms.final_neg_ratio": ratio(counts["algorithms.final_negs"], counts["algorithms.final_neg_runs"]),
        "algorithms.final_neg_runs": counts["algorithms.final_neg_runs"] / n,
        "costs.self_s": layer["costs"],
        "costs.charge_calls": counts["costs.charge"] / n,
        "costs.merge_calls": counts["costs.merge"] / n,
        "costs.ledgers": counts["costs.ledger"] / n,
        "backends.self_s": layer["backends.forward"] + layer["backends.modular"],
        "backends.forward_s": layer["backends.forward"],
        "backends.modular_s": layer["backends.modular"],
        "backends.group_op_calls": (counts["backends.forward.op"] + counts["backends.modular.op"]) / n,
        "bench.self_s": layer["bench"],
        "bench.report_s": own["bench.report"] * scale,
        "bench.class_repeat_ratio": ratio(traced["class_repeats"], traced["class_runs"]),
        "bench.drivers": workload.drivers if isinstance(workload, BenchWorkload) else 0,
        "verify.self_s": layer["verify"],
        "verify.products": counts["verify.products"] / n,
        "verify.recode_hit_ratio": ratio(counts["verify.recode_hits"], counts["verify.recode_lookups"]),
        "verify.recode_lookups": counts["verify.recode_lookups"] / n,
        "cli.self_s": layer["cli"],
        "trace.overhead_ratio": (traced["runs"] / sum(traced["scaled"])) / (plain["runs"] / sum(plain["scaled"])),
        "trace.calls": n,
    }
    attempted = len(plain["durations"]) + n
    failed = plain["failed"] + traced["failed"]
    details = {"calls_untraced": len(plain["durations"]), "calls_traced": n,
               "runs_per_call": workload.runs_per_call, "drivers": workload.drivers,
               "problems": loop.problems}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, details


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(name: str, seed: int, seconds: float, trace: bool, order: list[str]) -> dict:
    cli = import_cli()
    units = load_units()
    workload = WORKLOADS[name]
    before = steal_ticks()
    measure = per_layer if trace else end_to_end
    result, details = measure(cli, workload, seed, seconds)
    after = steal_ticks()
    info = {**stamp(name, seed, order), "steal_ticks": {"before": before, "after": after}, **details}
    print(json.dumps({"perfbench": info}))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own child process, so each has its own peak memory."""
    order = list(WORKLOADS)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in order:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace)), "--order", ",".join(order)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--order", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        order = args.order.split(",") if args.order else [args.workload]
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), order)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
