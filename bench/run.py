"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload moments-mc --seed 0 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src`` directory.  Workloads and their checks live in
``workloads.py``; BENCHMARK.json at the checkout root lists the metrics.

The workload's operations run as one round, repeatedly, for --seconds:
at least one round, and no round that the last one's length says would
end after --seconds.  Caches inside the package are cleared
before every round, so each round is a cold start for the solvers.  Every
operation of the first round is checked against an independent reference;
later rounds must reproduce its output byte for byte, except for reseeded
operations (workloads.py), whose every round is checked.

Each operation is timed on its own, and so is the host's speed while it
runs.  On a shared host, other tenants slow this process by up to half,
for stretches of seconds to minutes, so raw times move with the host's
load from run to run.  A fixed calibration loop that does not touch the
package (`calibration_loop`) slows alike.  It is timed before and after
each operation, and for a few steps every PROBE_PERIOD_S while the
operation runs (SpeedProbe), in the main thread's CPU time, so waits for
the GIL or for a worker do not count as slowness.  A timing counts only
if no other thread of this process was running at its start and end, and
no other Python thread was alive: the two vCPUs slow each other, and the
benchmark must not read the program's own threads as a slow host.  The operation's time, less the probes', is
scaled to the loop's reference speed CAL_REF_S.  The metrics sum, over
operations, the median of these scaled times over rounds.  Raw times are
printed and reported beside them.

--trace 0 reports the end-to-end metrics:
  wall_s        wall time of one round of operations, scaled
  cpu_s         process CPU time of one round, all threads, scaled
  setup_s       interpreter start plus `import abep.cli` in a fresh
                process, median of several launches, not scaled
  peak_rss_mb   peak resident memory of this process
  time_to_se_s  sum over Monte Carlo operations of scaled wall x
                (se / target)^2

--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics per traced round (tracing.py), plus the tracing
overhead: traced minus untraced wall_s, both taken as above.

Operations failed / attempted is reported in the result's `failed` and
`attempted` fields.  A report with environment, per-operation output
digests and (traced) spans goes to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 5
# About the fastest time of CAL_STEPS calibration steps on a 2 vCPU x86_64
# VM, Python 3.11.7, numpy 2.4.6 (BASELINE.md).  Scaled times are in
# seconds at that speed.
CAL_REF_S = 0.009
CAL_STEPS = 1000       # timed between operations
PROBE_STEPS = 50       # timed inside an operation, every PROBE_PERIOD_S
PROBE_PERIOD_S = 0.05
WORKLOAD_NAMES = ("moments-mc", "duality-mc", "dual-exact")
SETUP_CHILD = ("import time, abep, abep.cli; "
               "print(time.clock_gettime(time.CLOCK_MONOTONIC))")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_threads():
    """Never start more threads than the CPUs this process may use."""
    n = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(n))
    os.environ.setdefault("ABEP_THREADS", str(min(4, n)))


def setup_seconds() -> float:
    """Interpreter start to `import abep.cli` done, in a fresh process.
    Not scaled: a launch is mostly loading files and libraries, and its
    time does not follow the calibration loop's."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout) - t0


def _read(path: Path):
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _last_level_cache():
    levels = []
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level, size = _read(idx / "level"), _read(idx / "size")
        if level and size:
            levels.append((int(level), size))
    return max(levels)[1] if levels else None


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes
    libs = {line.split()[-1] for line in (_read(Path("/proc/self/maps")) or "").splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "nproc": nproc(),
        "llc_size": _last_level_cache(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ABEP_THREADS": os.environ.get("ABEP_THREADS"),
    }


def reset_caches():
    """Empty every module-level cache of the package: cold solves each round."""
    for name, module in list(sys.modules.items()):
        if not (name == "abep" or name.startswith("abep.")):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, dict) and attr.endswith("_cache"):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def calibration_loop(steps: int) -> float:
    """Interpreter work and small-array numpy calls, in about the mix of a
    small-batch Euler-Maruyama step; independent of the package."""
    x = np.linspace(0.0, 1.0, 96).reshape(32, 3)
    acc = 0.0
    for i in range(steps):
        y = np.sqrt(np.abs(x)) * 0.5 + x * 0.1
        x = np.clip(x + 0.01 * y, 0.0, 1.0)
        for j in range(20):
            acc += (j * 0.5) % 3 + i
    return acc + float(x.sum())


def others_running() -> bool:
    """Whether a thread of this process other than the caller is running,
    or another Python thread is alive: a worker waiting for the GIL runs
    as soon as the caller lets go of it."""
    if threading.active_count() > 1:
        return True
    me = str(threading.get_native_id())
    try:
        for task in os.listdir("/proc/self/task"):
            if task != me:
                with open(f"/proc/self/task/{task}/stat") as f:
                    if f.read().rpartition(")")[2].split()[0] == "R":
                        return True
    except OSError:            # the thread ended while being read
        return True
    return False


def step_time(steps: int) -> float:
    """Main-thread CPU seconds per calibration step."""
    c = time.thread_time()
    calibration_loop(steps)
    return (time.thread_time() - c) / steps


def quiet_step_time(steps: int) -> float | None:
    """step_time, or None if another thread of the process was running at
    the start or at the end."""
    if others_running():
        return None
    step = step_time(steps)
    return None if others_running() else step


def settled_step_time(steps: int, tries: int = 50) -> float:
    """quiet_step_time, waiting up to `tries` x 2 ms for other threads to
    stop (OpenBLAS workers spin for a while after a call); the last timing
    counts anyway."""
    for _ in range(tries):
        step = quiet_step_time(steps)
        if step is not None:
            return step
        time.sleep(0.002)
    return step_time(steps)


def speed(step_times: list[float]) -> float:
    """Host speed relative to CAL_REF_S, from calibration step times evenly
    spaced over an interval: the mean of 1 / step time."""
    return CAL_REF_S / CAL_STEPS / statistics.harmonic_mean(step_times)


class SpeedProbe:
    """Times PROBE_STEPS calibration steps every PROBE_PERIOD_S of wall time
    while an operation runs, from a SIGALRM handler in the main thread.  A
    long call into C holds the handler back until it returns."""

    def __init__(self):
        self.step_times: list[float] = []
        self.skipped = 0
        # CPU time of the probes: what they take from the operation.  Their
        # wall time can be longer, waiting for the GIL while workers go on.
        self.cpu = 0.0

    def _probe(self, signum, frame):
        c = time.thread_time()
        step = quiet_step_time(PROBE_STEPS)
        if step is None:
            self.skipped += 1
        else:
            self.step_times.append(step)
        self.cpu += time.thread_time() - c

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


class OpStats:
    def __init__(self, op):
        self.op = op
        self.walls: list[float] = []        # raw, untraced rounds
        self.speeds: list[float] = []       # host speed, 1 = CAL_REF_S
        self.probes = [0, 0]                # in-operation probes taken, skipped
        self.scaled_walls: list[float] = []
        self.scaled_cpus: list[float] = []
        self.scaled_traced: list[float] = []
        self.digest = None
        self.factors: list[float] = []
        self.problems: list[str] = []


class Runner:
    """Runs rounds of a workload's operations and checks their outputs."""

    def __init__(self, ops):
        self.stats = [OpStats(op) for op in ops]
        self.attempted = 0
        self.failed = 0
        self.rounds_run = 0

    def round(self, tracer=None):
        reset_caches()
        if tracer is not None:
            tracer.start_round()
        outputs = []
        before = settled_step_time(CAL_STEPS)
        for st in self.stats:
            with SpeedProbe() as probe:
                c, s = time.process_time(), time.perf_counter()
                try:
                    text, payload = st.op.call(self.rounds_run)
                    error = None
                except Exception as exc:   # a raising operation is a failed one
                    text, payload, error = b"", None, f"{type(exc).__name__}: {exc}"
                op_wall = time.perf_counter() - s - probe.cpu
                op_cpu = time.process_time() - c - probe.cpu
            after = settled_step_time(CAL_STEPS)
            op_speed = speed([before, *probe.step_times, after])
            st.probes[0] += len(probe.step_times)
            st.probes[1] += probe.skipped
            outputs.append((op_wall, op_speed, op_wall * op_speed, op_cpu * op_speed,
                            text, payload, error))
            before = after
        for st, (op_wall, op_speed, wall, cpu, text, payload, error) in zip(self.stats, outputs):
            if tracer is None:
                st.walls.append(op_wall)
                st.speeds.append(op_speed)
                st.scaled_walls.append(wall)
                st.scaled_cpus.append(cpu)
            else:
                st.scaled_traced.append(wall)
            self._record(st, text, payload, error)
        self.rounds_run += 1

    def _record(self, st: OpStats, text, payload, error):
        self.attempted += 1
        digest = hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()
        if error:
            problems = [error]
        elif st.digest is None or st.op.reseeded:
            st.digest = st.digest or digest
            try:
                problems = st.op.check(payload)
                if st.op.se_factor and not problems:
                    st.factors.append(st.op.se_factor(payload))
            except Exception as exc:   # a check that cannot read the output fails it
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        elif digest != st.digest:
            problems = ["output differs from the first round's"]
        else:
            problems = []
        if problems:
            self.failed += 1
            st.problems.extend(problems)

    def rounds(self, seconds, traced_round=None):
        """Untraced rounds for `seconds`, each followed by traced_round()
        when given."""
        start = last = time.perf_counter()
        # go on while now + the last round's length is within `seconds`
        while self.rounds_run == 0 or 2 * time.perf_counter() - last - start < seconds:
            last = time.perf_counter()
            self.round()
            if traced_round is not None:
                traced_round()

    def total(self, attr="scaled_walls") -> float:
        """Sum over operations of the median of their scaled times."""
        return sum(statistics.median(getattr(st, attr)) for st in self.stats)

    def time_to_se(self) -> float:
        return sum(statistics.median(st.scaled_walls) * statistics.mean(st.factors)
                   for st in self.stats if st.factors)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes, for the harness smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "abep" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run inside a source checkout",
              file=sys.stderr)
        return 2
    limit_threads()
    setups = [setup_seconds() for _ in range(2 if args.tiny else SETUP_LAUNCHES)]

    sys.path.insert(0, str(SRC))
    import abep
    if Path(abep.__file__).resolve().parent != (SRC / "abep").resolve():
        print(f"error: imported abep from {abep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    env = environment()
    runner = Runner(WORKLOADS[args.workload](args.seed, args.tiny))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_s_launches": setups}
    if args.trace:
        # untraced and traced rounds alternate, so slow drifts of the
        # machine's speed fall on both sides of the overhead estimate
        tracer = tracing.Tracer()

        def traced_round():
            with tracing.installed(tracer):
                runner.round(tracer)

        runner.rounds(args.seconds, traced_round)
        untraced = runner.total()
        overhead = runner.total("scaled_traced") - untraced
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / untraced
        report["layer_self_s"] = tracing.layer_self_times(tracer)
        report["spans"] = [s.as_dict() for s in tracer.spans]
    else:
        runner.rounds(args.seconds)
        metrics = {
            "wall_s": runner.total(),
            "cpu_s": runner.total("scaled_cpus"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "time_to_se_s": runner.time_to_se(),
        }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    report["ops"] = [{"name": st.op.name, "sha256": st.digest, "walls": st.walls,
                      "speeds": st.speeds, "probes_taken_skipped": st.probes,
                      "scaled_walls": st.scaled_walls, "scaled_cpus": st.scaled_cpus,
                      "scaled_traced_walls": st.scaled_traced,
                      "se_factors": st.factors, "problems": st.problems}
                     for st in runner.stats]
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str))

    print("environment " + json.dumps(env))
    for st in runner.stats:
        print(f"op {st.op.name}: sha256 {st.digest} median wall {statistics.median(st.walls):.6f}"
              f" s raw, {statistics.median(st.scaled_walls):.6f} s scaled, over {len(st.walls)}"
              + (f" FAILED: {'; '.join(st.problems[:3])}" if st.problems else ""))
    if "layer_self_s" in report:
        print("layer self time per round (s) " + json.dumps(report["layer_self_s"]))
    print(f"ops_failed {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:g}; report {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
