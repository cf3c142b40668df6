#!/usr/bin/env python3
"""Validates the observability JSONL artifact written by a bench binary.

Runs the given bench in a scratch directory with a small trial budget
(ANALOCK_BENCH_TRIALS) so it finishes quickly, then checks that the
artifact is well-formed:

  * every line parses as a standalone JSON object;
  * every line carries the required fields: ts_ns (non-negative int),
    type ("span" | "event" | "summary"), name (non-empty string);
  * span lines carry a non-negative dur_ns;
  * there is at least one summary line of kind "span" (one per node of
    the span tree, named by its path) with calls >= 1, numeric
    total_ms, self_ms, p50_ms and p95_ms, and self_ms <= total_ms;
  * attack.convergence events per attack have strictly increasing
    best_score and non-decreasing query counts (the convergence curve
    the attack benches are meant to record); a drop in the query count
    marks the start of a new run of the same attack and resets the curve.
    Benches that run no attacks (e.g. the fault-resilience sweep) pass
    --no-convergence to skip this requirement; convergence events that
    do appear are still validated.

The bench runs with ANALOCK_OBS_REPORT=1 and its stdout must carry
exactly one "observability report" header: the run report is printed
once, however the end of the run is reached.

A missing artifact, a zero-byte artifact, or an artifact with no records
all fail with a non-zero exit code; parse errors report the offending
line number.

The same tool also validates the BENCH_<name>.json trajectory artifact
written by the profiling harness (src/obs/prof/): schema name + version,
environment capture, per-case robust stats, monotone per-rep timestamps,
non-negative counters, and span-profile coherence (self <= total).

Usage:
  check_jsonl.py [--no-convergence] [--expect-bench-json NAME]
                 <bench-binary> <artifact-name> [trials]
  check_jsonl.py --bench-json FILE [FILE...]

The first form runs the bench in a scratch directory and validates its
JSONL event record (and, with --expect-bench-json, the BENCH json it
wrote there too). The second form validates existing BENCH json files
in place (used for the checked-in baselines). Exit code 0 = valid.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

REQUIRED_TYPES = {"span", "event", "summary"}
REPORT_HEADER = "observability report"


def fail(msg: str) -> None:
    print(f"check_jsonl: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_line(lineno: int, line: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as err:
        fail(f"line {lineno} is not valid JSON ({err}): {line[:200]}")
    if not isinstance(record, dict):
        fail(f"line {lineno} is not a JSON object: {line[:200]}")
    ts = record.get("ts_ns")
    if not isinstance(ts, int) or ts < 0:
        fail(f"line {lineno}: ts_ns missing or not a non-negative int: {ts!r}")
    rtype = record.get("type")
    if rtype not in REQUIRED_TYPES:
        fail(f"line {lineno}: type must be one of {sorted(REQUIRED_TYPES)}, "
             f"got {rtype!r}")
    name = record.get("name")
    if not isinstance(name, str) or not name:
        fail(f"line {lineno}: name missing or empty: {name!r}")
    if rtype == "span":
        dur = record.get("dur_ns")
        if not isinstance(dur, (int, float)) or dur < 0:
            fail(f"line {lineno}: span without non-negative dur_ns: {dur!r}")
    return record


def validate_artifact(path: str, require_convergence: bool = True) -> None:
    if not os.path.exists(path):
        fail(f"artifact missing: {path}")
    if os.path.getsize(path) == 0:
        fail(f"artifact is empty (0 bytes): {path}")
    records = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                fail(f"line {lineno} is empty")
            records.append(validate_line(lineno, line))
    if not records:
        fail("artifact is empty")

    # Per-span timing summary rows must exist and be coherent.
    span_summaries = [
        r for r in records
        if r["type"] == "summary" and r.get("attrs", {}).get("kind") == "span"
    ]
    if not span_summaries:
        fail("no summary rows of kind 'span' (emit_summary_events missing?)")
    for r in span_summaries:
        attrs = r["attrs"]
        calls = attrs.get("calls")
        if not isinstance(calls, int) or calls < 1:
            fail(f"span summary {r['name']!r}: calls must be >= 1, got {calls!r}")
        for key in ("total_ms", "self_ms", "p50_ms", "p95_ms"):
            if not isinstance(attrs.get(key), (int, float)):
                fail(f"span summary {r['name']!r}: missing numeric {key}")
        if attrs["self_ms"] > attrs["total_ms"] + 1e-6:
            fail(f"span summary {r['name']!r}: self_ms {attrs['self_ms']} "
                 f"exceeds total_ms {attrs['total_ms']}")

    # Convergence curves: per attack, best_score strictly improves and the
    # query count never goes backwards.
    curves = {}
    for r in records:
        if r["type"] == "event" and r["name"] == "attack.convergence":
            attrs = r.get("attrs", {})
            attack = attrs.get("attack")
            query = attrs.get("query")
            score = attrs.get("best_score")
            if not isinstance(attack, str):
                fail(f"convergence event without attack name: {attrs!r}")
            if not isinstance(query, int) or query < 1:
                fail(f"convergence event with bad query count: {attrs!r}")
            if not isinstance(score, (int, float)):
                fail(f"convergence event with non-numeric best_score: {attrs!r}")
            curves.setdefault(attack, []).append((query, float(score)))
    if not curves and require_convergence:
        fail("no attack.convergence events in the artifact")
    for attack, points in curves.items():
        for (q0, s0), (q1, s1) in zip(points, points[1:]):
            if q1 < q0:
                continue  # a fresh run of the same attack starts a new curve
            if s1 <= s0:
                fail(f"{attack}: best_score did not improve ({s0} -> {s1})")

    n_spans = sum(1 for r in records if r["type"] == "span")
    n_curve = sum(len(p) for p in curves.values())
    print(f"check_jsonl: OK: {len(records)} lines, {n_spans} span records, "
          f"{len(span_summaries)} span summaries, {n_curve} convergence "
          f"points across {sorted(curves)}")


# --------------------------------------------------- BENCH_*.json schema

BENCH_SCHEMA = "analock-bench"
BENCH_SCHEMA_VERSION = 1
BENCH_ENV_KEYS = (
    "git_sha", "compiler", "flags", "cpu", "counter_mode",
    "counter_degrade_reason", "trials_budget", "reps_override", "warmup",
    "min_time_ms", "max_reps",
)
STATS_KEYS = ("n", "min", "max", "mean", "median", "mad", "p95")
COUNTER_KEYS = ("cycles", "instructions", "branch_misses",
                "cache_references", "cache_misses", "task_clock_ns")


def check_stats(where: str, stats) -> None:
    if not isinstance(stats, dict):
        fail(f"{where}: stats must be an object, got {type(stats).__name__}")
    for key in STATS_KEYS:
        value = stats.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"{where}: stats key {key!r} missing or non-numeric: "
                 f"{value!r}")
    if stats["n"] < 1:
        fail(f"{where}: stats n must be >= 1, got {stats['n']!r}")
    if not stats["min"] <= stats["median"] <= stats["max"]:
        fail(f"{where}: expected min <= median <= max, got "
             f"{stats['min']} / {stats['median']} / {stats['max']}")
    for key in ("min", "max", "median", "mad", "p95"):
        if stats[key] < 0:
            fail(f"{where}: stats key {key!r} is negative: {stats[key]!r}")


def check_case(bench: str, case) -> None:
    name = case.get("name") if isinstance(case, dict) else None
    if not isinstance(name, str) or not name:
        fail(f"{bench}: case without a non-empty name: {case!r}")
    where = f"{bench}:{name}"
    warmups = case.get("warmups")
    if not isinstance(warmups, int) or warmups < 0:
        fail(f"{where}: warmups must be a non-negative int: {warmups!r}")
    ops = case.get("ops_per_rep")
    if not isinstance(ops, (int, float)) or ops <= 0:
        fail(f"{where}: ops_per_rep must be positive: {ops!r}")
    check_stats(f"{where}.wall_ms", case.get("wall_ms"))

    # Optional case annotations (e.g. bench_batch_eval records lanes and
    # thread count): a flat object of string keys to finite numbers.
    notes = case.get("notes")
    if notes is not None:
        if not isinstance(notes, dict):
            fail(f"{where}: notes must be an object: {notes!r}")
        for nkey, nval in notes.items():
            if not isinstance(nkey, str) or not nkey:
                fail(f"{where}: notes key must be a non-empty string: "
                     f"{nkey!r}")
            if (not isinstance(nval, (int, float)) or isinstance(nval, bool)
                    or not math.isfinite(nval)):
                fail(f"{where}: notes[{nkey!r}] must be a finite number: "
                     f"{nval!r}")

    counters = case.get("counters")
    if not isinstance(counters, dict):
        fail(f"{where}: counters must be an object (may be empty)")
    for cname, cstats in counters.items():
        if cname not in COUNTER_KEYS:
            fail(f"{where}: unknown counter {cname!r}")
        check_stats(f"{where}.counters.{cname}", cstats)

    reps = case.get("reps")
    if not isinstance(reps, list) or not reps:
        fail(f"{where}: reps must be a non-empty list")
    if len(reps) != case["wall_ms"]["n"]:
        fail(f"{where}: wall_ms.n={case['wall_ms']['n']} but "
             f"{len(reps)} reps recorded")
    prev_t = -1
    for i, rep in enumerate(reps):
        if not isinstance(rep, dict):
            fail(f"{where}: rep {i} is not an object")
        t_ns = rep.get("t_ns")
        if not isinstance(t_ns, int) or t_ns < 0:
            fail(f"{where}: rep {i} t_ns missing or negative: {t_ns!r}")
        if t_ns < prev_t:
            fail(f"{where}: rep timestamps not monotone "
                 f"({prev_t} -> {t_ns} at rep {i})")
        prev_t = t_ns
        wall = rep.get("wall_ms")
        if not isinstance(wall, (int, float)) or wall < 0:
            fail(f"{where}: rep {i} wall_ms missing or negative: {wall!r}")
        for cname in COUNTER_KEYS:
            if cname in rep and (not isinstance(rep[cname], int)
                                 or rep[cname] < 0):
                fail(f"{where}: rep {i} counter {cname!r} must be a "
                     f"non-negative int: {rep[cname]!r}")


def check_profile(bench: str, profile) -> int:
    if not isinstance(profile, dict):
        fail(f"{bench}: profile must be an object")
    spans = profile.get("spans")
    if not isinstance(spans, list):
        fail(f"{bench}: profile.spans must be a list")
    for span in spans:
        path = span.get("path") if isinstance(span, dict) else None
        if not isinstance(path, str) or not path:
            fail(f"{bench}: profile span without a path: {span!r}")
        where = f"{bench}:profile:{path}"
        name = span.get("name")
        if not isinstance(name, str) or not name:
            fail(f"{where}: span name missing")
        if not path.endswith(name):
            fail(f"{where}: path does not end with name {name!r}")
        depth = span.get("depth")
        if not isinstance(depth, int) or depth < 0:
            fail(f"{where}: depth must be a non-negative int: {depth!r}")
        calls = span.get("calls")
        if not isinstance(calls, int) or calls < 1:
            fail(f"{where}: calls must be >= 1: {calls!r}")
        total = span.get("total_ms")
        self_ms = span.get("self_ms")
        for key, value in (("total_ms", total), ("self_ms", self_ms)):
            if not isinstance(value, (int, float)) or value < 0:
                fail(f"{where}: {key} missing or negative: {value!r}")
        # Allow a hair of float slack from the ns -> ms conversion.
        if self_ms > total + 1e-6:
            fail(f"{where}: self_ms {self_ms} exceeds total_ms {total}")
    return len(spans)


def validate_bench_json(path: str) -> None:
    if not os.path.exists(path):
        fail(f"bench json missing: {path}")
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            fail(f"{path} is not valid JSON: {err}")
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    if doc.get("schema") != BENCH_SCHEMA:
        fail(f"{path}: schema must be {BENCH_SCHEMA!r}, "
             f"got {doc.get('schema')!r}")
    if doc.get("schema_version") != BENCH_SCHEMA_VERSION:
        fail(f"{path}: schema_version must be {BENCH_SCHEMA_VERSION}, "
             f"got {doc.get('schema_version')!r}")
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        fail(f"{path}: bench name missing")
    env = doc.get("env")
    if not isinstance(env, dict):
        fail(f"{path}: env capture missing")
    for key in BENCH_ENV_KEYS:
        if key not in env:
            fail(f"{path}: env key {key!r} missing")
    cases = doc.get("cases")
    if not isinstance(cases, list) or not cases:
        fail(f"{path}: cases must be a non-empty list")
    for case in cases:
        check_case(bench, case)
    n_spans = check_profile(bench, doc.get("profile"))
    print(f"check_jsonl: OK: {path}: bench {bench!r}, {len(cases)} cases, "
          f"{n_spans} profile spans, counter mode "
          f"{env.get('counter_mode')!r}")


def main() -> None:
    argv = sys.argv[1:]
    if argv and argv[0] == "--bench-json":
        if len(argv) < 2:
            fail(f"usage: {sys.argv[0]} --bench-json FILE [FILE...]")
        for path in argv[1:]:
            validate_bench_json(path)
        return

    require_convergence = True
    expect_bench_json = None
    while argv:
        if argv[0] == "--no-convergence":
            require_convergence = False
            argv = argv[1:]
        elif argv[0] == "--expect-bench-json" and len(argv) >= 2:
            expect_bench_json = argv[1]
            argv = argv[2:]
        else:
            break
    if len(argv) not in (2, 3):
        fail(f"usage: {sys.argv[0]} [--no-convergence] "
             f"[--expect-bench-json NAME] <bench-binary> "
             f"<artifact-name> [trials]")
    bench = os.path.abspath(argv[0])
    artifact_name = argv[1]
    trials = argv[2] if len(argv) == 3 else "40"

    with tempfile.TemporaryDirectory(prefix="analock_obs_") as scratch:
        env = dict(os.environ)
        env["ANALOCK_BENCH_TRIALS"] = trials
        env["ANALOCK_OBS_REPORT"] = "1"
        env.pop("ANALOCK_OBS_JSONL", None)  # let the bench pick its own path
        env.pop("ANALOCK_BENCH_JSON", None)
        proc = subprocess.run(
            [bench], cwd=scratch, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"bench exited with code {proc.returncode}")
        reports = proc.stdout.count(REPORT_HEADER)
        if reports != 1:
            fail(f"expected exactly one {REPORT_HEADER!r} header in the "
                 f"bench's stdout, got {reports}")
        artifact = os.path.join(scratch, artifact_name)
        if not os.path.exists(artifact):
            fail(f"bench did not write {artifact_name} "
                 f"(dir contains: {os.listdir(scratch)})")
        validate_artifact(artifact, require_convergence)
        if expect_bench_json is not None:
            validate_bench_json(os.path.join(scratch, expect_bench_json))


if __name__ == "__main__":
    main()
