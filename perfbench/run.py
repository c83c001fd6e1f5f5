"""cavity2deg benchmark: one seeded, closed-loop workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mode_ladder --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``mode_ladder``  - exact_coupling_1d, lowest_mode_scan and normal_modes +
  manymode_spectrum on the structured W = diag(w^2) + w_p^2 P P^T;
* ``dense_jacobi`` - diagonalize_w on arbitrary symmetric matrices, some with
  clustered spectra;
* ``datasets``     - an in-process ``cli.main`` session over phase, response
  and eft, plus OccupancyGrid.disk ground-state tasks.

One task is in flight at a time, in one process.  A pass runs the whole task
list; the run repeats passes while the next one is expected to end within
``--seconds``.  Each task's output is checked by its oracle after the first
pass and must repeat byte for byte on every later pass.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median wall
time of fresh interpreters that import cavity2deg and run the workload's
warm-up task, started between passes at times spread over the run.  A task's
time is its mean over the passes; ``run_s`` is their sum, the mean time of
one pass, ``task_p50_ms`` their median and ``task_tail_ms`` the highest
percentile that still leaves ten tasks beyond it.  ``peak_rss_mb`` is this
process's peak resident memory.

Every time above is divided by the host's slowdown over the run, which
``speed.SpeedProbe`` measures with a fixed probe timed before each task: the
times are in reference seconds (see ``speed.py`` for why and how).  The
human-readable lines also give the raw wall times and the slowdown.

``--trace 1`` spends half the time on untraced passes and half on passes
with every layer wrapped by ``spans.Tracer``, and prints the per-layer
metrics; ``trace.overhead_frac`` compares the two halves' ``run_s``.  Spans
go to ``.perfbench_work/``, next to a JSON copy of every result.

The benchmark's own tests: ``python3 -m pytest perfbench``.

The last line of stdout is the result object; the lines before it give the
same metrics for people, the tail percentile, and the environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("mode_ladder", "dense_jacobi", "datasets")
WORK = Path(".perfbench_work")
SETUP_PROBES = 15
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ running

class Passes:
    """Timed passes over one task list, with the checks between them."""

    def __init__(self, tasks, probe=None) -> None:
        self.tasks = tasks
        self.probe = probe             # sampled before each untraced task
        self.reference: list = []      # per task: sha256 of the first output
        self.oracle: list = []         # per task: failure reason or None
        self.walls: list = []          # untraced pass times
        self.traced_walls: list = []
        self.task_times: list = [[] for _ in tasks]   # per task, untraced
        self.traced_task_times: list = [[] for _ in tasks]
        self.attempted = 0
        self.failures: list = []       # (pass, task index, reason)

    def run(self, budget: float, tracer=None, between=None) -> None:
        """Whole passes while the next one is expected to end within budget.

        ``between(elapsed)``, if given, runs before each pass, inside the
        budget but outside the pass.
        """
        t0 = time.perf_counter()
        longest = 0.0
        while True:
            if between:
                between(time.perf_counter() - t0)
            gc.collect()        # keep full collections out of the timed tasks
            longest = max(longest, self._one_pass(tracer))
            if time.perf_counter() - t0 + longest > budget:
                return

    def _one_pass(self, tracer) -> float:
        outputs, times = [], []
        start = time.perf_counter()
        for i, task in enumerate(self.tasks):
            if tracer:
                tracer.begin_task(i)
            elif self.probe:
                self.probe.sample()
            t0 = time.perf_counter()
            try:
                out, err = task.call(), None
            except Exception as exc:     # a task must not stop the run
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_task()
            outputs.append((out, err))
        wall = time.perf_counter() - start
        (self.traced_walls if tracer else self.walls).append(wall)
        for per_task, t in zip(self.traced_task_times if tracer else self.task_times,
                               times):
            per_task.append(t)
        self._settle(outputs)
        return wall

    def _settle(self, outputs) -> None:
        """Oracles on the first pass; byte comparison on every later one."""
        first = not self.reference
        pass_no = len(self.walls) + len(self.traced_walls) - 1
        for i, (task, (out, err)) in enumerate(zip(self.tasks, outputs)):
            digest = None
            if err is None:
                try:
                    digest = hashlib.sha256(task.encode(out)).hexdigest()
                except (OSError, ValueError) as exc:
                    err = f"output unreadable: {exc}"
            if first:
                self.reference.append(digest)
                reason = err
                if reason is None:
                    try:
                        reason = task.check(out)
                    except Exception as exc:    # an oracle crash is a failure
                        reason = f"oracle raised {type(exc).__name__}: {exc}"
                self.oracle.append(reason)
            else:
                reason = err or self.oracle[i]
                if reason is None and digest != self.reference[i]:
                    reason = "output bytes differ from the first pass"
            self.attempted += 1
            if reason:
                self.failures.append((pass_no, i, reason))


def tail_percentile(n: int, beyond: int = 10) -> int:
    """Highest whole percentile whose nearest rank leaves `beyond` tasks above."""
    return max((p for p in range(100) if n - math.ceil(p * n / 100) >= beyond),
               default=0)


def best_pass(task_times: list) -> float:
    """Sum over tasks of each task's fastest repeat."""
    return sum(min(t) for t in task_times)


def task_stats(passes: Passes, slowdown: float) -> dict:
    """Run, median and tail times from each task's mean, in reference units."""
    per_task = sorted(statistics.fmean(t) / slowdown for t in passes.task_times)
    n = len(per_task)
    p = tail_percentile(n)
    rank = max(1, math.ceil(p * n / 100))
    return {"run_s": sum(per_task), "p50_ms": 1e3 * statistics.median(per_task),
            "tail_ms": 1e3 * per_task[rank - 1], "tail_percentile": p,
            "tasks": n, "tasks_beyond": n - rank}


def spawn_seconds(args: list, env: dict) -> float:
    """Wall time of one fresh interpreter, from start to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-400:]}")
    return elapsed


def probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p)
    return env


# -------------------------------------------------------------- environment

def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path("src/cavity2deg").rglob("*.py")):
        h.update(str(path).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not Path(".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30, check=False)
    return proc.stdout.strip() or None


def environment(args, workload) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    import numpy
    return {"commit": git_commit(), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": version("scipy"), "cpu_count": os.cpu_count(),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "blas_threads": blas_threads(), "workload": workload.name,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "tasks": len(workload.tasks), "task_list_sha256": workload.digest()}


# ------------------------------------------------------------------ metrics

def end_to_end(workload, args) -> tuple[Passes, dict, dict]:
    from speed import SpeedProbe
    from workloads import WARMUP
    env = probe_env()
    setup: list = []

    def probe(elapsed: float) -> None:
        # spread over the run: the machine's speed changes within seconds
        while (len(setup) < SETUP_PROBES
               and elapsed >= len(setup) * args.seconds / SETUP_PROBES):
            setup.append(spawn_seconds(["-c", WARMUP[workload.name]], env))

    exec(WARMUP[workload.name], {})
    speed = SpeedProbe()
    passes = Passes(workload.tasks, speed)
    passes.run(args.seconds, between=probe)
    probe(math.inf)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    slowdown = speed.slowdown()
    stats = task_stats(passes, slowdown)
    metrics = {"setup_s": statistics.median(setup) / slowdown,
               "run_s": stats["run_s"],
               "task_p50_ms": stats["p50_ms"], "task_tail_ms": stats["tail_ms"],
               "peak_rss_mb": peak_mb}
    stats.update(slowdown=slowdown, probes=len(speed.samples), setup_samples=setup,
                 raw=dict(task_stats(passes, 1.0), setup_s=statistics.median(setup)))
    return passes, metrics, stats


def per_layer(workload, args) -> tuple[Passes, dict, dict]:
    from spans import COUNTS, LAYERS, Tracer
    from workloads import WARMUP
    env = probe_env()
    imports = {
        "import.cavity2deg_s": statistics.median(
            spawn_seconds(["-c", "import cavity2deg"], env) for _ in range(IMPORT_PROBES)),
        "import.cli_version_s": statistics.median(
            spawn_seconds(["-m", "cavity2deg", "--version"], env)
            for _ in range(IMPORT_PROBES)),
    }
    exec(WARMUP[workload.name], {})
    passes = Passes(workload.tasks)
    passes.run(args.seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        passes.run(args.seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    n = len(passes.traced_walls)
    traced_run = best_pass(passes.traced_task_times)
    untraced_run = best_pass(passes.task_times)

    spans = tracer.self_times()
    m = dict(imports)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    layer_top = dict.fromkeys(LAYERS, 0)
    groups: dict = {}
    for name, (own, calls, top) in spans.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own
            layer_calls[layer] += calls
            layer_top[layer] += top
        group = "cli.cmd" if name.startswith("cli.cmd_") else name
        g_own, g_calls = groups.get(group, (0.0, 0))
        groups[group] = (g_own + own, g_calls + calls)
    for group, (own, calls) in groups.items():
        m[f"{group}.self_s"] = own / n
        m[f"{group}.calls"] = calls / n
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / n
        m[f"{layer}.calls"] = layer_calls[layer] / n
        m[f"{layer}.errors"] = tracer.errors[layer] / n
    for key in COUNTS:
        m[key] = tracer.counts[key] / n
    m["response.ns_per_point"] = _ratio(1e9 * layer_self["response"], layer_top["response"])
    m["cli.render.ns_per_byte"] = _ratio(1e9 * groups["cli.render"][0],
                                         tracer.counts["cli.render.bytes"])
    m["manymode.jacobi.gflops_achieved"] = _ratio(
        tracer.counts["manymode.jacobi.flops_computed"],
        1e9 * groups["manymode.diagonalize_w"][0])
    m["trace.spans"] = len(tracer.name) / n
    m["trace.overhead_frac"] = (traced_run - untraced_run) / untraced_run
    m["trace.layer_self_frac"] = sum(layer_self.values()) / sum(passes.traced_walls)
    m["trace.run_s"] = traced_run
    m["failed_frac"] = len(passes.failures) / passes.attempted
    WORK.mkdir(exist_ok=True)
    tracer.save(WORK / f"spans-{workload.name}-seed{args.seed}.npz")
    info = {"traced_passes": n, "untraced_passes": len(passes.walls)}
    return passes, m, info


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path("src/cavity2deg/__init__.py").is_file():
        print("perfbench: src/cavity2deg not found; run from the root of a "
              "cavity2deg checkout", file=sys.stderr)
        return 2
    declared = json.loads(Path("BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, "src")

    import cli_session
    import workloads
    build = {"mode_ladder": workloads.mode_ladder,
             "dense_jacobi": workloads.dense_jacobi,
             "datasets": cli_session.datasets}[args.workload]
    workload = build(args.seed)
    for rel, text in workload.files.items():
        Path(rel).parent.mkdir(parents=True, exist_ok=True)
        Path(rel).write_text(text, encoding="utf-8")
    env = environment(args, workload)

    measure = per_layer if args.trace else end_to_end
    passes, values, info = measure(workload, args)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for declared metrics {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(passes.failures)
    result = {"correct": failed == 0, "attempted": passes.attempted,
              "failed": failed, "metrics": metrics}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes.walls)} untraced + {len(passes.traced_walls)} traced passes "
          f"of {len(workload.tasks)} tasks")
    for name, metric in metrics.items():
        print(f"  {name:38s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"  task_tail_ms is p{info['tail_percentile']} of {info['tasks']} tasks "
              f"({info['tasks_beyond']} beyond)")
        raw = info["raw"]
        print(f"  host slowdown {info['slowdown']:.4g} over {info['probes']} probes; raw "
              f"setup_s {raw['setup_s']:.4g}, run_s {raw['run_s']:.4g}, "
              f"task_p50_ms {raw['p50_ms']:.4g}, task_tail_ms {raw['tail_ms']:.4g}")
    print(f"  failed_frac {failed / passes.attempted:.6g} "
          f"({failed} of {passes.attempted} task runs)")
    for pass_no, i, reason in passes.failures[:10]:
        print(f"  FAILED pass {pass_no} task {i} ({workload.tasks[i].kind}): {reason}")
    print("environment " + json.dumps(env, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    record = dict(result, environment=env, info=info, walls=passes.walls,
                  traced_walls=passes.traced_walls, task_times=passes.task_times,
                  traced_task_times=passes.traced_task_times,
                  failures=[list(f) for f in passes.failures])
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
