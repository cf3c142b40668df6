#!/usr/bin/env python3
"""Diffs two sets of BENCH_*.json trajectory artifacts.

Matches cases by (bench, case) across a baseline set and a candidate set
and compares the robust wall-clock stats the harness records (median,
MAD). A case only counts as a regression when BOTH hold:

  * the median grew by more than --threshold percent, and
  * the growth exceeds the noise floor, taken as 3 sigma where sigma is
    estimated from the larger of the two MADs (sigma ~ 1.4826 * MAD, the
    consistency constant for normal data); runs whose medians sit within
    each other's noise are reported as "ok (noise)".

The baseline side must be a measurement: every case needs at least one
warmup and five measured reps, and every baseline file must carry the
same env.git_sha. A baseline that breaks either rule is refused (exit 2)
before anything is compared.

Prints a markdown table (one row per matched case, plus rows for cases
that appear on only one side) and exits non-zero when any regression was
found, unless --warn-only is given. Counter medians (cycles,
instructions) ride along as informational columns when both sides
recorded hardware counters.

Usage:
  bench_compare.py BASELINE CANDIDATE [--threshold PCT] [--warn-only]

BASELINE and CANDIDATE are directories (every BENCH_*.json inside is
loaded) or individual .json files; either side may mix both.
"""

import argparse
import glob
import json
import os
import sys

MAD_TO_SIGMA = 1.4826  # consistency constant for normally distributed data
MIN_BASELINE_WARMUPS = 1
MIN_BASELINE_REPS = 5


def fail(msg: str) -> None:
    print(f"bench_compare: FAIL: {msg}", file=sys.stderr)
    sys.exit(2)


def load_side(paths):
    """Maps (bench, case) -> case dict for every artifact in `paths`.

    Also returns {path: env.git_sha} for the files loaded."""
    cases = {}
    shas = {}
    files = []
    for path in paths:
        if os.path.isdir(path):
            found = sorted(glob.glob(os.path.join(path, "BENCH_*.json")))
            if not found:
                fail(f"no BENCH_*.json files in directory {path}")
            files.extend(found)
        elif os.path.isfile(path):
            files.append(path)
        else:
            fail(f"no such file or directory: {path}")
    for path in files:
        with open(path, encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as err:
                fail(f"{path} is not valid JSON: {err}")
        bench = doc.get("bench")
        if not isinstance(bench, str):
            fail(f"{path}: missing bench name")
        shas[path] = doc.get("env", {}).get("git_sha")
        for case in doc.get("cases", []):
            key = (bench, case.get("name"))
            if key in cases:
                fail(f"duplicate case {key} (second copy in {path})")
            cases[key] = case
    if not cases:
        fail("no cases loaded")
    return cases, shas


def check_baseline(cases, shas):
    """Refuses a baseline that is not a measurement at one commit."""
    if len(set(shas.values())) != 1:
        listing = ", ".join(f"{os.path.basename(p)}={s}"
                            for p, s in sorted(shas.items()))
        fail(f"baseline files disagree on git_sha: {listing}")
    for (bench, name), case in sorted(cases.items()):
        warmups = case.get("warmups", 0)
        reps = case.get("wall_ms", {}).get("n", 0)
        if warmups < MIN_BASELINE_WARMUPS or reps < MIN_BASELINE_REPS:
            fail(f"baseline case {bench}:{name} has {warmups} warmups and "
                 f"{reps} reps; a baseline needs >= {MIN_BASELINE_WARMUPS} "
                 f"warmup and >= {MIN_BASELINE_REPS} reps")


def median_of(case, counter=None):
    if counter is None:
        return case["wall_ms"]["median"], case["wall_ms"]["mad"]
    stats = case.get("counters", {}).get(counter)
    if stats is None:
        return None, None
    return stats["median"], stats["mad"]


def classify(old_med, old_mad, new_med, new_mad, threshold_pct):
    """Returns (verdict, delta_pct, noise_ms)."""
    delta = new_med - old_med
    delta_pct = 100.0 * delta / old_med if old_med > 0 else 0.0
    sigma = MAD_TO_SIGMA * max(old_mad, new_mad)
    noise = 3.0 * sigma
    if abs(delta) <= noise:
        return "ok (noise)", delta_pct, noise
    if delta_pct > threshold_pct:
        return "REGRESSION", delta_pct, noise
    if delta_pct < -threshold_pct:
        return "improved", delta_pct, noise
    return "ok", delta_pct, noise


ONE_KEY_SUFFIX = "_one_key_calls"


def speedup_pairs(cases):
    """Finds (bench, stem, one_key_case, variant_name, variant_case) rows.

    A pair is any `<stem>_one_key_calls` case with a `<stem>_batch_*`
    sibling in the same bench (the convention bench_batch_eval uses); the
    ratio of their wall-clock medians is the batched-engine speedup.
    """
    pairs = []
    for (bench, name), case in sorted(cases.items()):
        if not isinstance(name, str) or not name.endswith(ONE_KEY_SUFFIX):
            continue
        stem = name[: -len(ONE_KEY_SUFFIX)]
        for (other_bench, other_name), other in sorted(cases.items()):
            if other_bench != bench or not isinstance(other_name, str):
                continue
            if other_name.startswith(stem + "_batch_"):
                pairs.append((bench, stem, case, other_name, other))
    return pairs


def print_speedups(base, cand):
    """Prints one-key-vs-batch speedup ratios for both artifact sets."""
    rows = []
    for bench, stem, one_case, variant, variant_case in speedup_pairs(cand):
        new_ratio = (one_case["wall_ms"]["median"] /
                     variant_case["wall_ms"]["median"])
        old_ratio = None
        base_one = base.get((bench, stem + ONE_KEY_SUFFIX))
        base_variant = base.get((bench, variant))
        if base_one is not None and base_variant is not None:
            old_ratio = (base_one["wall_ms"]["median"] /
                         base_variant["wall_ms"]["median"])
        rows.append((f"{bench}:{stem}", variant,
                     "-" if old_ratio is None else f"{old_ratio:.2f}x",
                     f"{new_ratio:.2f}x"))
    if not rows:
        return
    headers = ("pair", "batch case", "base speedup", "new speedup")
    widths = [max(len(headers[i]), max(len(r[i]) for r in rows))
              for i in range(len(headers))]
    def line(cells):
        return "| " + " | ".join(
            c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"
    print("\none-key-vs-batch speedup (wall-clock median ratio):")
    print(line(headers))
    print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in rows:
        print(line(row))


def main() -> None:
    parser = argparse.ArgumentParser(
        description="diff two BENCH_*.json sets")
    parser.add_argument("baseline", help="baseline dir or file")
    parser.add_argument("candidate", help="candidate dir or file")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="median growth percent that counts as a "
                             "regression (default 10)")
    parser.add_argument("--warn-only", action="store_true",
                        help="always exit 0; report regressions only")
    args = parser.parse_args()

    base, base_shas = load_side([args.baseline])
    check_baseline(base, base_shas)
    cand, _ = load_side([args.candidate])

    rows = []
    regressions = 0
    for key in sorted(set(base) | set(cand)):
        bench, case = key
        label = f"{bench}:{case}"
        if key not in base:
            rows.append((label, "-", "-", "-", "-", "new case"))
            continue
        if key not in cand:
            rows.append((label, "-", "-", "-", "-", "case removed"))
            continue
        old_med, old_mad = median_of(base[key])
        new_med, new_mad = median_of(cand[key])
        verdict, delta_pct, noise = classify(
            old_med, old_mad, new_med, new_mad, args.threshold)
        if verdict == "REGRESSION":
            regressions += 1
        rows.append((label, f"{old_med:.3f}", f"{new_med:.3f}",
                     f"{delta_pct:+.1f}%", f"{noise:.3f}", verdict))

    headers = ("case", "base median [ms]", "new median [ms]", "delta",
               "noise floor [ms]", "verdict")
    widths = [max(len(headers[i]), max(len(r[i]) for r in rows))
              for i in range(len(headers))]
    def line(cells):
        return "| " + " | ".join(
            c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"
    print(line(headers))
    print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in rows:
        print(line(row))

    print_speedups(base, cand)

    print(f"\nbench_compare: {len(rows)} cases, {regressions} regressions "
          f"(threshold {args.threshold:.1f}%, noise 3*{MAD_TO_SIGMA}*MAD)")
    if regressions and not args.warn_only:
        sys.exit(1)


if __name__ == "__main__":
    main()
