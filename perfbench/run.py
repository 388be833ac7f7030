#!/usr/bin/env python3
"""End-to-end benchmark of the `mpcgs` binary.

    python3 perfbench/run.py --workload <reference|long_loci|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the release `mpcgs` binary
the way `cargo build --release` builds it (no features) and the compiled
replay tool in `perfbench/replay`, generates the workload's inputs from
`--seed`, runs the binary on them for `--seconds` seconds, replays every
operation in-process to check the outputs, and prints one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the first operation is
replayed again with spans around every layer call and the per-layer metrics
are printed instead. Build output goes to `$CARGO_TARGET_DIR` (default
`.bench_build`), scratch files to `.perfbench_work`. The exit code is
non-zero when a build fails, the program fails or an output check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

WORKLOADS = ("reference", "long_loci", "serve_mix")
BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = ".perfbench_work"

# A long-loci input (input seed 21000069, fixed whatever --seed is) on which
# `mpcgs --resume` from the last checkpoint does not reproduce the
# uninterrupted run: a retained genealogy with two coalescences at the same
# time loses one of them in the checkpoint round trip, so the resumed round
# maximises Eq. 26 over different samples. Resuming it is one operation of
# every long-loci round, and it fails every time until that fault is mended.
RESUME_FAULT_INPUT_SEED = 21_000_069


# Estimations per run whose replay is checked against the binary's output.
REPLAYED = 4

# Timing statistics leave out launches during which the hypervisor stole more
# than this share of the machine's CPU time (`/proc/stat`); those launches
# are still checked. On the shared host the benchmark was tuned on, such
# bursts slowed whole runs four- to five-fold.
MAX_STEAL_SHARE = 0.03


def input_seed(seed, index):
    """The generator seed of operation `index` of a run seeded `seed`."""
    return seed * 1_000_003 + index


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Build the program and the replay tool; return their paths."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    commands = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "mpcgs", "--bin", "mpcgs"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(BENCH_DIR, "replay", "Cargo.toml")],
    ]
    for command in commands:
        result = subprocess.run(command, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(command)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "mpcgs"), os.path.join(release, "perfbench-replay")


def cpu_ticks():
    """(steal, total) ticks of all CPUs since boot, or (0, 0) without
    `/proc/stat`."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def launch(binary, args, banner):
    """Run the program once, timing it from outside.

    Returns the exit code, the stdout text, seconds from launch to exit,
    seconds from launch to the banner line, the receipt time of every line,
    the peak resident set (MB) from the kernel's accounting of the child, its
    CPU seconds, and the share of the machine's CPU time stolen meanwhile.
    """
    steal_before, total_before = cpu_ticks()
    start = time.perf_counter()
    child = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, bufsize=1)
    lines, stamps, banner_at = [], [], None
    for line in iter(child.stdout.readline, ""):
        now = time.perf_counter() - start
        if banner_at is None and line.startswith(banner):
            banner_at = now
        lines.append(line)
        stamps.append(now)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    steal_after, total_after = cpu_ticks()
    child.returncode = os.waitstatus_to_exitcode(status)
    stderr = child.stderr.read()
    child.stdout.close()
    child.stderr.close()
    if child.returncode != 0:
        log(f"{binary} {' '.join(args)} exited {child.returncode}: {stderr.strip()}")
    return {
        "code": child.returncode,
        "text": "".join(lines),
        "lines": lines,
        "stamps": stamps,
        "wall": wall,
        "setup": banner_at if banner_at is not None else wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu": usage.ru_utime + usage.ru_stime,
        "steal": (steal_after - steal_before) / max(1, total_after - total_before),
    }


def unstolen(launches):
    """The launches the hypervisor left alone (all of them if none was)."""
    return [run for run in launches if run["steal"] <= MAX_STEAL_SHARE] or launches


def tool_json(tool, args):
    result = subprocess.run([tool] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    if result.returncode != 0:
        raise SystemExit(f"perfbench: replay tool failed: {result.stderr.strip()}")
    return json.loads(result.stdout)


def generate(tool, workload, input_seed, out):
    subprocess.run([tool, "gen", workload, "--seed", str(input_seed), "--out", out], check=True)
    with open(os.path.join(out, "inputs.json")) as f:
        return json.load(f)


def quantile(values, q):
    """Linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_cli_workload(workload, binary, tool, seed, seconds, work):
    """Reference and long-loci: one estimation per round, back to back until
    `seconds` have passed, each on freshly generated inputs. A long-loci round
    also resumes the fixed input from its last checkpoint (check L2).

    Returns (attempted, failed, check errors, metrics, first operation's
    directory, its wall seconds), as `run_serve_workload` does."""
    ops, errors, resumes = [], [], []
    if workload == "long_loci":
        fixed_dir = os.path.join(work, "resume-fault")
        fixed = generate(tool, workload, RESUME_FAULT_INPUT_SEED, fixed_dir)
        full = launch(binary, fixed["args"], "mpcgs: ")
        full_rows, full_theta = checks.parse_cli_output(full["text"])
        cut = fixed["args"].index("--checkpoint-every")
        resume_args = fixed["args"][:cut] + ["--resume", fixed["checkpoint"]]
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        out = os.path.join(work, f"op{len(ops)}")
        inputs = generate(tool, workload, input_seed(seed, len(ops)), out)
        run = launch(binary, inputs["args"], "mpcgs: ")
        rows, theta = checks.parse_cli_output(run["text"])
        ops.append({"dir": out, "inputs": inputs, "run": run, "rows": rows, "theta": theta})
        if workload == "long_loci":
            os.remove(inputs["checkpoint"])
            resumed = launch(binary, resume_args, "mpcgs: ")
            resumed_rows, resumed_theta = checks.parse_cli_output(resumed["text"])
            resumes.append(checks.check_l2("resume-fault", full_rows, full_theta,
                                           resumed_rows, resumed_theta))
    failed = [op for op in ops if op["run"]["code"] != 0]
    good = [op for op in ops if op["run"]["code"] == 0]
    if not good:
        attempted = len(ops) + len(resumes)
        return attempted, attempted, ["every operation failed"], {}, None, None
    for k, op in enumerate(good):
        run = op["run"]
        log(f"{workload} op{k}: wall {run['wall']:.3f}s cpu {run['cpu']:.3f}s "
            f"rss {run['rss_mb']:.1f}MB steal {run['steal']:.3f} theta {op['theta']}")
    if workload == "long_loci":
        errors += checks.check_l1([(f"op{k}", op["theta"], op["inputs"]["truth"])
                                   for k, op in enumerate(good)])
    if resumes and resumes[0]:
        log(f"resume fault still present: {resumes[0][0]}")

    # Replaying costs as much as the run it replays, so R1–R3 check the
    # first and last estimations and two spread evenly between them.
    checked = sorted({round(i * (len(good) - 1) / (REPLAYED - 1)) for i in range(REPLAYED)})
    replay = tool_json(tool, ["replay", workload] + [good[k]["dir"] for k in checked])
    for k, rep in zip(checked, replay["ops"]):
        op = good[k]
        errors += checks.check_r1(f"op{k}", op["rows"], op["theta"], rep,
                                  checks.printed_engine(op["run"]["text"]))
        errors += checks.check_r2(f"op{k}", rep)
        if workload == "reference":
            errors += checks.check_r3(f"op{k}", rep)

    walls = [run["wall"] for run in unstolen([op["run"] for op in good])]
    log(f"{workload}: {len(walls)} of {len(good)} estimations timed")
    first_launch = full if workload == "long_loci" else ops[0]["run"]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (first_launch["setup"], "s"),
        "jobs_per_s": (len(walls) / sum(walls), "1/s"),
        "job_latency_p50_s": (statistics.median(walls), "s"),
        "job_latency_p90_s": (quantile(walls, 0.9), "s"),
        "peak_rss_mb": (min(op["run"]["rss_mb"] for op in good), "MB"),
    }
    attempted = len(ops) + len(resumes)
    failed_count = len(failed) + sum(1 for r in resumes if r)
    return attempted, failed_count, errors, metrics, ops[0]["dir"], ops[0]["run"]["wall"]


def run_serve_workload(binary, tool, seed, seconds, work):
    """Serve mix: one closed batch of jobs drained by `mpcgs serve`, again
    and again until `seconds` have passed. An operation is one job."""
    inputs = generate(tool, "serve_mix", input_seed(seed, 0), work)
    n_jobs = int(inputs["jobs"])
    drains, errors = [], []
    deadline = time.perf_counter() + seconds
    while not drains or time.perf_counter() < deadline:
        run = launch(binary, inputs["args"], "mpcgs serve: ")
        finished, failed_lines = checks.parse_serve_output(run["text"])
        run["finished"] = finished
        run["latency"] = [stamp for line, stamp in zip(run["lines"], run["stamps"])
                          if checks.FINISHED.match(line.rstrip("\n"))]
        errors += checks.check_s1(f"drain{len(drains)}", finished, failed_lines, n_jobs,
                                  run["code"])
        log(f"serve_mix drain{len(drains)}: wall {run['wall']:.3f}s cpu {run['cpu']:.3f}s "
            f"rss {run['rss_mb']:.1f}MB steal {run['steal']:.3f}")
        drains.append(run)
    replay = tool_json(tool, ["replay", "serve_mix", work])
    jobs = replay["ops"][0]["jobs"]
    for k, run in enumerate(drains):
        errors += checks.check_s2(f"drain{k}", run["finished"], jobs)
    failed = sum(n_jobs - len(run["finished"]) for run in drains)
    timed = unstolen(drains)
    log(f"serve_mix: {len(timed)} of {len(drains)} drains timed")
    walls = [run["wall"] for run in timed]
    latencies = [t for run in timed for t in run["latency"]]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (drains[0]["setup"], "s"),
        "jobs_per_s": (n_jobs / statistics.median(walls), "1/s"),
        "job_latency_p50_s": (statistics.median(latencies), "s"),
        "job_latency_p90_s": (quantile(latencies, 0.9), "s"),
        "peak_rss_mb": (min(run["rss_mb"] for run in drains), "MB"),
    }
    return n_jobs * len(drains), failed, errors, metrics, work, drains[0]["wall"]


def traced_layers(workload, tool, first_dir, untraced_wall):
    """Replay the first operation with spans and return the per-layer
    metrics, plus the tracing overhead against the untraced binary."""
    spans = os.path.join(WORK_DIR, f"{workload}.spans.json")
    doc = tool_json(tool, ["replay", workload, "--trace", spans, first_dir])
    layers = doc["layers"]
    traced_wall = layers.pop("trace.replay_wall_s")[0]
    layers["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    return layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary, tool = build()
    work = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    if args.workload == "serve_mix":
        outcome = run_serve_workload(binary, tool, args.seed, args.seconds, work)
    else:
        outcome = run_cli_workload(args.workload, binary, tool, args.seed, args.seconds, work)
    attempted, failed, errors, metrics, first_dir, first_wall = outcome

    if args.trace and not errors:
        metrics = traced_layers(args.workload, tool, first_dir, first_wall)
    for message in errors:
        log(f"check failed: {message}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
