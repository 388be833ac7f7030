"""Output checks of the mpcgs end-to-end benchmark that compare text.

The numeric reference computations (Eq. 26, pruning, ESS) live in the
compiled replay tool; these functions compare the program's printed output
with the replay's values and with the generator's true genealogies. Each
returns a list of failure messages, empty when the check passes.
"""

import math
import re

ROW = re.compile(r"^\s+(\d+)\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s*$")
FINAL = re.compile(r"^final estimate of theta: (\S+)$")
FINISHED = re.compile(r"^\[(\S+)\] finished: theta = (\S+)$")
ENGINE = re.compile(r"^\s+backend (\S+), (\S+) kernel")

# L1: |ln(θ̂ / MLE of the true genealogy)|. Over 90 long-loci inputs surveyed
# while the bounds were set, the median was 0.016 and the largest 0.15; one
# more input met while tuning (generator seed 21000068) gave 0.21. With
# 1500 bp of saturated sites per locus the data cannot always pin down the
# deepest coalescences. Every estimation must stay within a factor of e^0.5;
# the median over a run's estimations catches a systematic bias.
L1_MAX_LOG_RATIO = 0.5
L1_MAX_MEDIAN_LOG_RATIO = 0.1
# R2: relative distance between the program's θ̂ and the independent
# maximiser of Eq. 26 (the program's ascent stops at |Δθ| ≤ 1e-6).
R2_MAX_RELATIVE = 1e-5
# R3: relative distance between the independent ln P(D|G) and the trace.
R3_MAX_RELATIVE = 1e-9


def parse_cli_output(text):
    """The per-round table rows (as printed tokens) and the final θ̂."""
    rows, theta = [], None
    in_table = False
    for line in text.splitlines():
        if "driving-theta" in line:
            in_table = True
            continue
        final = FINAL.match(line)
        if final:
            theta = final.group(1)
            in_table = False
            continue
        row = ROW.match(line) if in_table else None
        if row:
            rows.append(list(row.groups()))
    return rows, theta


def parse_serve_output(text):
    """Job name -> printed θ̂ for every finished job, and the failure lines."""
    finished, failed = {}, []
    for line in text.splitlines():
        match = FINISHED.match(line)
        if match:
            finished[match.group(1)] = match.group(2)
        elif "FAILED" in line:
            failed.append(line)
    return finished, failed


def printed_engine(text):
    """The (backend, kernel) the CLI banner reports."""
    for line in text.splitlines():
        match = ENGINE.match(line)
        if match:
            return match.group(1), match.group(2)
    return None


def check_r1(label, printed_rows, printed_theta, replay_op, engine=None):
    """R1: the replay's rows and θ̂ equal the binary's at printed precision,
    and the replay ran the backend and kernel the binary printed."""
    errors = []
    if engine is not None and engine != (replay_op["backend"], replay_op["kernel"]):
        errors.append(f"R1 {label}: binary ran {engine}, replay "
                      f"{(replay_op['backend'], replay_op['kernel'])}")
    if printed_rows != replay_op["rows"]:
        errors.append(f"R1 {label}: printed rows {printed_rows} != replay {replay_op['rows']}")
    if printed_theta != replay_op["theta"]:
        errors.append(f"R1 {label}: printed theta {printed_theta} != replay {replay_op['theta']}")
    return errors


def check_r2(label, replay_op):
    """R2: each θ̂ maximises Eq. 26 recomputed from the replay's samples."""
    deviation = replay_op["eq26_deviation"]
    if not deviation <= R2_MAX_RELATIVE:
        return [f"R2 {label}: theta deviates {deviation:.3g} from the Eq. 26 maximiser"]
    return []


def check_r3(label, replay_op):
    """R3: independent pruning of the final genealogy equals the trace."""
    deviation = replay_op["pruning_deviation"]
    if not deviation <= R3_MAX_RELATIVE:
        return [f"R3 {label}: ln P(D|G) deviates {deviation:.3g} from independent pruning"]
    return []


def l1_distance(printed_theta, truth):
    """|ln(θ̂ / W/(n−1))|: distance of θ̂ from the true genealogy's MLE."""
    theta = float(printed_theta)
    return abs(math.log(theta / truth["mle"])) if theta > 0 else math.inf


def check_l1(estimates):
    """L1: θ̂ lies near the MLE of the true genealogy, W/(n−1), for every
    (label, printed θ̂, truth) of a run, and near it in the median."""
    distances = [l1_distance(theta, truth) for _, theta, truth in estimates]
    errors = [
        f"L1 {label}: theta {theta} is {d:.3f} (log) from the true MLE {truth['mle']:.4f}"
        for (label, theta, truth), d in zip(estimates, distances)
        if not d <= L1_MAX_LOG_RATIO
    ]
    median = sorted(distances)[len(distances) // 2] if distances else math.inf
    if not median <= L1_MAX_MEDIAN_LOG_RATIO:
        errors.append(f"L1: median distance {median:.3f} (log) from the true MLEs")
    return errors


def check_l2(label, full_rows, full_theta, resumed_rows, resumed_theta):
    """L2: a run resumed from the last checkpoint reproduces the last-round
    row and the final θ̂ of the uninterrupted run."""
    if not resumed_rows or not full_rows:
        return [f"L2 {label}: no rows to compare (resumed {resumed_rows})"]
    errors = []
    if resumed_rows[-1] != full_rows[-1]:
        errors.append(f"L2 {label}: resumed last row {resumed_rows[-1]} != {full_rows[-1]}")
    if resumed_theta != full_theta:
        errors.append(f"L2 {label}: resumed theta {resumed_theta} != {full_theta}")
    return errors


def check_s1(label, finished, failed, expected_jobs, exit_code):
    """S1: no job fails and every submitted job finishes."""
    errors = [f"S1 {label}: {line}" for line in failed]
    if len(finished) != expected_jobs:
        errors.append(f"S1 {label}: {len(finished)} of {expected_jobs} jobs finished")
    if exit_code != 0:
        errors.append(f"S1 {label}: serve exited with {exit_code}")
    return errors


def check_s2(label, finished, replay_jobs):
    """S2: each job's θ̂ from the drain equals the θ̂ of the job run alone."""
    errors = []
    for job in replay_jobs:
        if finished.get(job["name"]) != job["theta"]:
            errors.append(
                f"S2 {label}: {job['name']} drained to {finished.get(job['name'])}, "
                f"alone to {job['theta']}"
            )
    return errors
