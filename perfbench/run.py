"""Episode benchmark for ``streamform``: whole episodes, three workloads.

Usage, from the root of a checkout (the package is imported from ./src;
without it the script exits with code 2 and prints no result):

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Each run is one process and one workload. It sets the workload up
SETUP_REPEATS times from the seed, runs the last set-up for ``--seconds``
of env steps (at least MIN_STEPS), checks every output and prints one line
per metric, then a JSON report (machine and BLAS info, behaviour, checks;
also written to perfbench/out/), then, as the last line, ``{"correct",
"attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``), gated by the bounds in BENCHMARK.json:
  setup_s              import time plus the median of the set-ups: world and
                       formation, network init or checkpoint load, replay
                       prefill to batch_size and warm-up updates (train)
  env_step_ms_p90      90th percentile wall time of one env step (p99 swings
                       too much between identical runs)
  peak_rss_mb          peak resident memory of the process, set-ups included
Printed and reported but not gated:
  follower_steps_per_s simulated follower-steps per wall second over the
                       timed loop, the inverse of the time per follower-step
  env_step_ms_p50      median wall time of one env step, with its sample count
Both read the host's speed too directly to be gated: on a host whose speed
switches between two levels, often 1.5x apart, for seconds to minutes at a
time, their quartile spread over ten runs reached 0.25-0.27 of the median,
the largest bound a gate may have. p90 sits in the slow level in almost
every run and spread at most 0.23.
Episodes that raise or fail an output check are ``failed`` out of
``attempted``; the report prints their ratio as ``error_rate``. Collisions
are outcomes, not errors.

Workloads (the paper's scenario parameters are not in the repository, so
these are chosen here; constants are in episode.py):
  train            4 followers on a circle, 40 obstacles, stream cost, the
                   shared DDPG actor exploring with sigma_at(episode),
                   TrainerConfig defaults (batch 1024, hidden 64-128-128,
                   one train_step per env step), a checkpoint saved at each
                   episode end and reloaded bit-exact at run end. The
                   learner is most of the step: it exercises learner work.
  obstacle_course  8 followers, 120 obstacles, lidar range noise, a scripted
                   controller (formation tracking plus the stream-error
                   steering law) through simplex_from_controls, no learner.
                   Raycast and the stream avoider dominate.
  swarm            48 followers in a 7x7 lattice that reaches the navigator
                   only by relay, 20 obstacles plus 48 agent bodies in every
                   scan, APF cost, a greedy actor loaded from a checkpoint
                   in set-up with one batched forward pass per step, no
                   training. Per-agent loops and the O(n^2) comms graph.

Predicted effects (layer metric -> end-to-end metric, workload; predicted
no change). A change in follower_steps_per_s (reported) also shows in the
gated env_step_ms_p90:
  ddpg.* (train_step, its children, mlp, flops) -> follower_steps_per_s,
      env_step_ms_p90 on train; none on obstacle_course (no learner) or
      swarm (act is about 1%)
  sensing.raycast, sensing.extended -> follower_steps_per_s on
      obstacle_course and swarm; none on train
  sensing.neighbor_observations, dynamics.step -> follower_steps_per_s,
      env_step_ms_p90 on swarm; none on train
  stream_avoid.update, sensing.detect_intervals/split_sides ->
      follower_steps_per_s on obstacle_course; none on swarm (APF)
  checkpoint.load / checkpoint.save -> setup_s on swarm /
      follower_steps_per_s on train; none on obstacle_course
  bench.driver -> nothing; it keeps the harness's cost visible

Traced run (``--trace 1``): blocks of BLOCK_STEPS steps alternate between
untraced and traced. Traced blocks wrap the adapter's calls and the
package's internal learner and avoider calls in spans (spans.py); the spans
give the per-layer metrics and are saved to perfbench/out/spans-<workload>.npz.
``bench.trace_overhead`` is the median traced step time over the median
untraced one. Counts and behaviour cover the first MIN_STEPS timed steps,
so they repeat exactly for fixed code and seed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("train", "obstacle_course", "swarm")
SETUP_REPEATS = 5
MIN_STEPS = 200
BLOCK_STEPS = 25
BLAS_THREADS = 2


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def limit_threads() -> int:
    """Pin BLAS and OpenMP pools before numpy loads: at most nproc threads."""
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def git_revision() -> str | None:
    """Commit checked out at ROOT, read from .git; None outside a work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(np, seed: int, threads: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads_in_use(np, threads),
        "dtype": "float64",
        "git_revision": git_revision(),
        "seed": seed,
    }


def blas_threads_in_use(np, requested: int):
    """Ask OpenBLAS for its pool size; fall back to the requested count."""
    import ctypes
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return requested


def learner_work(cfg, obs_dim: int, action_dim: int) -> tuple[float, float]:
    """Computed flops and bytes of one train_step from layer shapes: every
    matmul (2mkn flops, 8(mk + kn + mn) bytes) plus the Adam sweep (about 12
    flops, 7 float64 accesses per parameter) and the soft update (3 flops, 3
    accesses). Temporaries and cache misses are ignored."""
    b = cfg.batch_size
    actor = [obs_dim, *cfg.hidden, action_dim]
    critic = [obs_dim + action_dim, *cfg.hidden, 1]

    def mm(m, k, n):
        return 2.0 * m * k * n, 8.0 * (m * k + k * n + m * n)

    def forward(sizes):
        return [mm(b, i, o) for i, o in zip(sizes, sizes[1:])]

    def backward(sizes):  # weight gradient and input gradient per layer
        return [x for i, o in zip(sizes, sizes[1:]) for x in (mm(i, b, o), mm(b, o, i))]

    ops = (forward(actor) + forward(critic)  # TD targets
           + forward(critic) + backward(critic)  # critic loss gradients
           + forward(actor) + forward(critic) + backward(critic) + backward(actor))
    params = sum((i + 1) * o for s in (actor, critic) for i, o in zip(s, s[1:]))
    flops = sum(f for f, _ in ops) + params * (12 + 3)
    nbytes = sum(n for _, n in ops) + params * 8.0 * (7 + 3)
    return flops, nbytes


def set_up(name: str, seed: int, tracer, episode, clock):
    """Build the workload SETUP_REPEATS times. The first copy replays a
    short prefix for the reference digest; the last one is timed (and, in a
    traced run, traced while it is built)."""
    times, ref_digest = [], None
    for r in range(SETUP_REPEATS):
        restore = tracer.install() if tracer and r == SETUP_REPEATS - 1 else None
        t0 = clock()
        wl = episode.Workload(name, seed, OUT_DIR)
        times.append(clock() - t0)
        if restore:
            restore()
        if r == 0:
            wl.start_timed()
            try:
                while wl.digest_left:
                    wl.step()
                ref_digest = wl.digest()
            except Exception:  # reported; the digest check then fails
                traceback.print_exc()
    return wl, times, ref_digest


class Timed:
    """Per-step wall times of the timed loop."""

    def __init__(self):
        self.samples: list[float] = []
        self.traced: dict[int, float] = {}  # step id -> time, traced blocks
        self.untraced: list[float] = []  # untraced blocks of a traced run
        self.failed_episodes = 0
        self.window = None
        self.wall = 0.0


def timed_loop(wl, seconds: float, tracer, clock) -> Timed:
    """Step until ``seconds`` have passed and at least MIN_STEPS were run.
    In a traced run, blocks of BLOCK_STEPS steps alternate untraced/traced."""
    out = Timed()
    restore = None
    wl.start_timed()
    t_begin = clock()
    deadline = t_begin + seconds
    while True:
        n = len(out.samples)
        if tracer and n % BLOCK_STEPS == 0:
            if (n // BLOCK_STEPS) % 2:
                restore = tracer.install()
            elif restore:
                restore()
                restore = None
        if restore:
            tracer.step = n
        t0 = clock()
        try:
            wl.step()
        except Exception:  # one failed episode is counted, the run goes on
            if out.failed_episodes == 0:
                traceback.print_exc()
            out.failed_episodes += 1
            wl.fail_episode()
        t1 = clock()
        out.samples.append(t1 - t0)
        if restore:
            out.traced[n] = t1 - t0
        elif tracer:
            out.untraced.append(t1 - t0)
        if n + 1 == MIN_STEPS:
            out.window = wl.stats.snapshot()
        if t1 >= deadline and n + 1 >= MIN_STEPS:
            break
    out.wall = clock() - t_begin
    if restore:
        restore()
    if tracer:
        tracer.step = -1
    return out


def checkpoint_roundtrip(wl, adapter, tracer) -> bool:
    """Save the learner, load the file back and compare every array bit
    for bit with the live networks."""
    restore = tracer.install() if tracer else None
    try:
        adapter.save_learner(wl.learner, wl.ckpt_path)
        loaded, _ = adapter.load_checkpoint(wl.ckpt_path)
    finally:
        if restore:
            restore()
    live = adapter.network_arrays(wl.learner)
    return loaded.keys() == live.keys() and all(
        loaded[k].dtype == live[k].dtype and loaded[k].shape == live[k].shape
        and loaded[k].tobytes() == live[k].tobytes() for k in live)


def counts(w, run_stats, learner_flops_bytes, ckpt_bytes: int, timed: Timed, np) -> dict:
    """Per-layer counts over the first MIN_STEPS steps (``w``)."""
    flops, nbytes = learner_flops_bytes
    return {
        "sensing.ray_circle_tests_per_step": w.ray_circle_tests / w.steps,
        "sensing.links_per_step": w.links / w.steps,
        "sensing.broadcast_reached_ratio": w.broadcast_reached / w.follower_steps,
        "stream_avoid.active_side_ratio": w.stream_sides / w.side_steps,
        "stream_avoid.degenerate_ratio": w.stream_degenerate / max(w.stream_sides, 1),
        "stream_avoid.relock_ratio": w.stream_relock / max(w.stream_relock + w.stream_hold, 1),
        "ddpg.gflop_per_train_step": flops / 1e9,
        "ddpg.mbytes_per_train_step": nbytes / 1e6,
        "ddpg.flop_per_byte": flops / nbytes if nbytes else 0.0,
        "ddpg.nonfinite_count": float(run_stats.nonfinite),
        "checkpoint.bytes": float(ckpt_bytes),
        "bench.trace_overhead":
            float(np.median(list(timed.traced.values())) / np.median(timed.untraced)),
    }


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "streamform" / "__init__.py").is_file():
        print(f"no streamform package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = limit_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import adapter
    import episode
    import spans
    import_s = time.perf_counter() - T_START
    if Path(adapter.package_file).resolve().parent != ROOT / "src" / "streamform":
        print(f"streamform imported from {adapter.package_file}, not ./src", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = spans.Tracer() if args.trace else None
    clock = time.perf_counter
    wl, setup_times, ref_digest = set_up(args.workload, args.seed, tracer, episode, clock)
    timed = timed_loop(wl, args.seconds, tracer, clock)
    run_stats, w = wl.stats, timed.window

    # run-level checks: the timed copy replays the reference prefix, and the
    # train checkpoint reloads bit-exact
    checks = {"digest": ref_digest is not None and wl.digest() == ref_digest}
    if wl.learner is not None:
        checks["checkpoint"] = checkpoint_roundtrip(wl, adapter, tracer)
    ckpt_bytes = 0
    if wl.ckpt_path.exists():
        ckpt_bytes = wl.ckpt_path.stat().st_size
        wl.ckpt_path.unlink()
    attempted_episodes = run_stats.episodes + 1  # the last one is cut by the clock
    failed_checks = sum(not ok for ok in checks.values())

    if args.trace:
        work = ((0.0, 0.0) if wl.learner is None
                else learner_work(wl.cfg, episode.OBS_DIM, adapter.ACTION_DIM))
        metrics = spans.layer_metrics(tracer, span_names(), timed.traced)
        metrics.update(counts(w, run_stats, work, ckpt_bytes, timed, np))
        tracer.write(OUT_DIR / f"spans-{args.workload}.npz")  # latest traced run
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "env_step_ms_p90": float(np.percentile(timed.samples, 90)) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    units = load_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    error_rate = timed.failed_episodes / attempted_episodes
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_info(np, args.seed, threads),
        "env_step_samples": len(timed.samples),
        "follower_steps_per_s": run_stats.follower_steps / timed.wall,
        "env_step_ms_p50": float(np.median(timed.samples)) * 1e3,
        "error_rate": error_rate,
        "checks": checks,
        "behaviour": {  # over the first MIN_STEPS steps, except the last entry
            "collisions_per_1000_follower_steps": 1000.0 * w.collisions / w.follower_steps,
            "mean_formation_error_m": w.formation_error_sum / w.follower_steps,
            "min_clearance_m": w.min_clearance,
            "episodes_run": w.episodes,
            "avoiding_side_share": w.avoid_sides / w.side_steps,
            "episodes_in_run": run_stats.episodes,
        },
        "setup_samples_s": setup_times,
        "import_s": import_s,
        "metrics": metrics,
    }
    (OUT_DIR / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    for k, m in metrics.items():
        print(f"{args.workload:16s} {k:44s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:16s} {'follower_steps_per_s':44s}"
          f" {report['follower_steps_per_s']:14.6g} 1/s (ungated)")
    print(f"{args.workload:16s} {'env_step_ms_p50':44s} {report['env_step_ms_p50']:14.6g} ms"
          f" (ungated; {len(timed.samples)} steps)")
    print(f"{args.workload:16s} {'error_rate':44s} {error_rate:14.6g} ratio"
          f" ({timed.failed_episodes} of {attempted_episodes} episodes)")
    print(json.dumps(report))
    print(json.dumps({
        "correct": timed.failed_episodes == 0 and failed_checks == 0,
        "attempted": attempted_episodes + len(checks),
        "failed": timed.failed_episodes + failed_checks,
        "metrics": metrics,
    }))
    return 0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_units() -> dict[str, str]:
    spec = load_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def span_names() -> list[str]:
    """Spans named in BENCHMARK.json, except ``bench.driver`` (derived)."""
    suffix = ".self_us_p50"
    return [m["name"][: -len(suffix)] for m in load_spec()["per_layer"]
            if m["name"].endswith(suffix) and m["name"] != "bench.driver" + suffix]


if __name__ == "__main__":
    sys.exit(main())
