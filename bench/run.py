"""kspoly benchmark: one closed-loop client, one job in flight.

    python3 bench/run.py --workload tables --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones, from a traced run of the same jobs (see
``tracer.py`` and ``README.md``).  The exit code is 0 only if every job
passed its checks.

Times are reported in reference seconds.  Before and after every timed
job the benchmark times a fixed piece of arithmetic that does not use kspoly
(``host_time``), and scales the job's wall time by ``REFERENCE_HOST_S`` over
the mean of the two.  A host that runs arithmetic slower for a while then
leaves the reported times unchanged, while a change to kspoly moves them as
before.  ``setup_s`` is scaled the same way, inside each set-up probe.  The
unscaled times are kept in the result file.
"""

from __future__ import annotations

import argparse
import contextlib
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
from fractions import Fraction
from functools import partial
from pathlib import Path
from random import Random

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

CASES = ("I", "II", "III", "V", "VIII", "IX")
# Case IX's check takes a tenth of a second.  Without it a pass has five
# jobs, and the median job falls inside the case II cluster instead of in
# the gap between the VIII and II clusters, where it swung from seed to seed.
AUDIT_CASES = ("I", "II", "III", "V", "VIII")
NMAX = 12  # tables workload
GOLDEN_SEED = 0  # the seed whose outputs golden.json pins
POOL = 8  # parameter draws per case that golden.json covers; passes cycle
SETUP_PROBES = 9
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
OVERRUN = 1.2  # a timed run starts no pass after OVERRUN * --seconds
MIN_PASSES = 2
TRACE_PASSES = 1
AUDIT_TRIALS = 1
HOST_REPS = 5  # host_time() is the median of this many calibration runs
# host_time() on the reference machine (2-core Xeon, Python 3.11).
REFERENCE_HOST_S = 0.003

# Reference seconds one pass takes.  A run does round(seconds / pass_s)
# whole passes, so every run of a workload makes the same jobs and its
# percentiles stay comparable.
PASS_S = {"tables": 6.5, "audit": 6.5}

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


class JobFailure(Exception):
    """A job's output disagreed with its cross-check or golden digest."""


def import_kspoly() -> None:
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kspoly

    if Path(kspoly.__file__).resolve().parent.parent != src:
        raise ImportError(f"kspoly imported from {kspoly.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def tables_job(params, expect: str | None) -> tuple[str, int]:
    """Returns the oracle JSON digest and 0 command-output bytes."""
    from kspoly import triangle

    oracle = triangle.build_oracle(params, NMAX)
    if len(oracle.entries) != (NMAX + 1) * (NMAX + 2) // 2:
        raise JobFailure(f"oracle table has {len(oracle.entries)} entries")
    for method in ("recurrence", "ladder", "transfer"):
        table = triangle.BUILDERS[method](params, NMAX)
        if table.entries != oracle.entries:
            raise JobFailure(f"{method} table differs from the oracle table")
    text = triangle.dumps_json(triangle.triangle_to_json(oracle))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if expect is not None and digest != expect:
        raise JobFailure(f"oracle JSON digest {digest} differs from golden {expect}")
    return digest, 0


def audit_job(case: str, cli_seed: int, expect: str | None, report: Path) -> tuple[str, int]:
    """Returns the report digest and the bytes the command wrote (report
    file and stdout)."""
    from kspoly import cli

    argv = ["check", "--case", case, "--trials", str(AUDIT_TRIALS), "--seed", str(cli_seed),
            "--output", str(report)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if code != 0:
        raise JobFailure(f"kspoly {' '.join(argv)} exited {code}")
    data = report.read_bytes()
    if json.loads(data).get("passed") is not True:
        raise JobFailure("report does not say passed")
    digest = hashlib.sha256(data).hexdigest()
    if expect is not None and digest != expect:
        raise JobFailure(f"report digest {digest} differs from golden {expect}")
    return digest, len(data) + len(stdout.getvalue().encode("utf-8"))


def make_passes(workload: str, seed: int, count: int, golden: dict | None):
    """The jobs of passes 0..count-1: lists of (label, callable)."""
    from kspoly.catalog import sample_params

    passes = []
    for index in range(count):
        slot = index % POOL
        if workload == "tables":
            rng = Random(f"tables/{seed}/{slot}")
            jobs = [
                (case, partial(tables_job, sample_params(case, rng, nmax_hint=NMAX),
                               golden["tables"][slot][case] if golden else None))
                for case in CASES
            ]
        else:
            cli_seed = seed * POOL + slot
            report = OUT_DIR / "audit-report.json"
            jobs = [
                (case, partial(audit_job, case, cli_seed,
                               golden["audit"][slot][case] if golden else None, report))
                for case in AUDIT_CASES
            ]
        passes.append(jobs)
    return passes


def load_golden(seed: int) -> dict | None:
    doc = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    if doc["seed"] != GOLDEN_SEED or doc["pool"] != POOL or doc["trials"] != AUDIT_TRIALS:
        raise ValueError(f"{GOLDEN_PATH} was made for another seed, pool or trial count")
    return doc if seed == GOLDEN_SEED else None


def setup(args) -> list:
    """Everything before the first timed job: import, draw, load digests."""
    import_kspoly()
    golden = load_golden(args.seed)
    if args.trace:
        count = TRACE_PASSES
    else:
        count = max(MIN_PASSES, round(args.seconds / PASS_S[args.workload]))
    return make_passes(args.workload, args.seed, count, golden)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def calibration_work() -> None:
    """A fixed piece of exact rational arithmetic into a dict, the kind of
    work kspoly does, written without kspoly so that no change to the
    package moves its time."""
    terms = [Fraction(3 * i + 1, 7 * i + 2) for i in range(24)]
    acc: dict[int, Fraction] = {}
    for i, a in enumerate(terms):
        for j, b in enumerate(terms):
            acc[(i + j) % 13] = acc.get((i + j) % 13, 0) + a * b


def host_time() -> float:
    """How long this host takes for calibration_work() right now: the
    median of HOST_REPS runs."""
    times = []
    for _ in range(HOST_REPS):
        begin = time.perf_counter()
        calibration_work()
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


def run_jobs(passes, tracer=None, deadline_s=None, between=None) -> dict:
    """Run whole passes.  between(i) runs before pass i and, with i equal to
    the number of passes, after the last; its time is not counted.  Once
    MIN_PASSES are done and the timed wall time passes deadline_s, no
    further pass starts.  Each job's wall time is scaled to reference
    seconds by host_time() taken before and after it."""
    latencies, raw, hosts, failures, out_bytes = [], [], [], [], 0
    host = host_time()
    for index, jobs in enumerate(passes):
        if deadline_s is not None and index >= MIN_PASSES and sum(raw) > deadline_s:
            break
        if between is not None:
            between(index)
            host = host_time()
        for label, job in jobs:
            begin = time.perf_counter()
            try:
                if tracer is None:
                    _, written = job()
                else:
                    _, written = tracer.call("bench.job", job, (), {})
                out_bytes += written
            except Exception as exc:  # any raise fails the job; the run goes on
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
            raw.append(time.perf_counter() - begin)
            if tracer is not None:
                tracer.drain()
            after = host_time()
            hosts.append((host + after) / 2)
            latencies.append(raw[-1] * REFERENCE_HOST_S / hosts[-1])
            host = after
    if between is not None:
        between(len(passes))
    return {"latencies": latencies, "raw_latencies": raw, "host_s": hosts,
            "failures": failures, "out_bytes": out_bytes}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile that still has
    TAIL_BEYOND samples above it, or the maximum for a short run."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


class SetupProbes:
    """Runs setup() in fresh interpreters, SETUP_PROBES in all, spread over
    the pass boundaries of a run so that they sample the host across the run
    rather than at one moment.  Each interpreter times setup() and, before
    and after it, host_time(), so its setup time is scaled to reference
    seconds on the core it ran on."""

    def __init__(self, args, passes: int):
        self.argv = [sys.executable, str(Path(__file__).resolve()),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--setup-probe"]
        last = SETUP_PROBES - 1
        self.due = [round(j * passes / last) for j in range(SETUP_PROBES)]
        self.times: list[float] = []
        self.raw: list[float] = []

    def __call__(self, boundary: int) -> None:
        while len(self.times) < SETUP_PROBES and self.due[len(self.times)] <= boundary:
            proc = subprocess.run(self.argv, check=True, cwd=ROOT, capture_output=True, text=True)
            probe = json.loads(proc.stdout)
            self.raw.append(probe["setup_s"])
            self.times.append(probe["setup_s"] * REFERENCE_HOST_S / probe["host_s"])


def read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    head = read_text(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        head = read_text(str(ROOT / ".git" / head[5:])).strip()
    return head or "unknown"


def environment(seed: int) -> dict:
    cpu = "unknown"
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": read_text("/proc/loadavg").strip(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def end_to_end(args, passes) -> tuple[dict, dict, dict]:
    probes = SetupProbes(args, len(passes))
    # A host much slower than the reference one cuts the run short.
    run = run_jobs(passes, deadline_s=OVERRUN * args.seconds, between=probes)
    attempted = len(run["latencies"])
    failed = len(run["failures"])
    tail_s, tail_pct, samples = tail(run["latencies"])
    values = {
        "setup_s": statistics.median(probes.times),
        "jobs_per_s": (attempted - failed) / sum(run["latencies"]),
        "job_p50_s": statistics.median(run["latencies"]),
        "job_tail_s": tail_s,
        "pass_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "job_tail_percentile": tail_pct,
        "job_samples": samples,
        "passes": len(passes),
        "passes_run": attempted // len(passes[0]),
        "raw_wall_s": sum(run["raw_latencies"]),
        "raw_jobs_per_s": (attempted - failed) / sum(run["raw_latencies"]),
        "raw_job_p50_s": statistics.median(run["raw_latencies"]),
        "setup_probes_s": probes.times,
        "raw_setup_s": statistics.median(probes.raw),
        "raw_setup_probes_s": probes.raw,
        "latencies_s": run["latencies"],
        "raw_latencies_s": run["raw_latencies"],
        "host_s": run["host_s"],
    }
    return values, extra, run


def traced(args, passes) -> tuple[dict, dict, dict]:
    from tracer import Tracer, install

    plain = run_jobs(passes)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        run = run_jobs(passes, tracer)
    finally:
        uninstall()
    tracer.add("cli.output.bytes", run["out_bytes"])
    values = tracer.layer_metrics()
    values["trace.overhead_ratio"] = sum(run["latencies"]) / sum(plain["latencies"])
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    extra = {
        "passes": len(passes),
        "untraced_wall_s": sum(plain["raw_latencies"]),
        "traced_wall_s": sum(run["raw_latencies"]),
        "spans": tracer.write(spans_path),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_summary": tracer.summary(),
    }
    run = {
        "latencies": plain["latencies"] + run["latencies"],
        "failures": plain["failures"] + run["failures"],
    }
    return values, extra, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(PASS_S), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        host = host_time()
        begin = time.perf_counter()
        setup(args)
        setup_s = time.perf_counter() - begin
        print(json.dumps({"setup_s": setup_s, "host_s": (host + host_time()) / 2}))
        return 0
    passes = setup(args)
    OUT_DIR.mkdir(exist_ok=True)
    env = environment(args.seed)
    if args.trace:
        from tracer import PER_LAYER as units
        values, extra, run = traced(args, passes)
    else:
        units = END_TO_END
        values, extra, run = end_to_end(args, passes)
    env["loadavg_end"] = read_text("/proc/loadavg").strip()

    attempted = len(run["latencies"])
    failed = len(run["failures"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {extra['passes']}  jobs {attempted}  failed {failed}")
    for name, unit in units:
        print(f"  {name:<36} {values[name]:>14.6g} {unit}")
    if not args.trace:
        beyond = min(TAIL_BEYOND, extra["job_samples"] - 1)
        print(f"  job_tail_s is the p{extra['job_tail_percentile']:.1f} latency of "
              f"{extra['job_samples']} jobs ({beyond} beyond it)")
        print(f"  times are in reference seconds; unscaled, setup_s is {extra['raw_setup_s']:.6g} s, "
              f"jobs_per_s {extra['raw_jobs_per_s']:.6g} 1/s and job_p50_s "
              f"{extra['raw_job_p50_s']:.6g} s")
    for failure in run["failures"]:
        print(f"  FAIL {failure}")
    print("env " + json.dumps(env))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "env": env, "extra": extra}, indent=1) + "\n",
                      encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
