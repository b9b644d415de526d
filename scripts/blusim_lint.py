#!/usr/bin/env python3
"""blusim project-invariant lint (ISSUE 8, docs/static_analysis.md).

Enforces the invariants the compiler cannot, over the source tree (plus
compile_commands.json when available, to prove every source file is
actually built):

  A. include-layering DAG -- a subsystem may only include subsystems in
     strictly lower bands (common < columnar/obs < runtime < gpusim <
     sched < groupby/sort/join < core < serve/workload < harness). An
     upward or same-band cross-directory include is a layering break.
  B. metric-name conventions -- every metric family literal is
     `blusim_[a-z0-9_]+`, counter families end `_total` (gauges and
     histograms must not), no family is registered with two different
     types or at two identical call sites, and every family appears in
     the docs/observability.md inventory (what keeps
     `scripts/check_prom.py --require` honest).
  C. lock/thread primitives -- no raw std::mutex / std::lock_guard /
     std::unique_lock / std::scoped_lock / std::condition_variable /
     std::thread outside the annotated chokepoints
     (common/annotations.h, common/lockdep.*, common/thread.h).
     Everything else goes through common::Mutex / common::MutexLock /
     std::condition_variable_any / common::Thread so the clang
     thread-safety analysis and lockdep see every acquisition.
  D. no unseeded nondeterminism -- rand()/srand()/std::random_device/
     drand48 are banned in src/ outside src/harness/ (workloads must be
     reproducible from their seeds; common/rng.h is the seeded source).
  E. one group-by price -- src/core/ and src/groupby/partitioned.cc (the
     router, the split choice and PartitionedGroupBy) may not call
     the CostModel group-by primitives directly; they price and charge a
     group-by through the term functions of src/groupby/price.h, so no
     second copy of the price can grow back.
  F. no per-row key, predicate, aggregate or cell calls --
     RowMatchesPredicates(, .PackKey(, .KeyHash( and FillWideKey( may
     appear in src/ only in the two batch kernels (src/runtime/predicate.*
     and src/runtime/groupby_plan.*), and AccumulateRow( and .AppendFrom( /
     ->AppendFrom( only where those one-row oracles are defined
     (src/runtime/group_result.* and src/columnar/column.*): every host
     sweep evaluates predicates, packs or hashes keys, aggregates and
     gathers a batch at a time, column by column.
  G. one group-count estimate -- KmvSketch may appear in src/ only in the
     sketch itself (src/common/kmv.*) and the three places that estimate a
     group count: the router's sample (src/core/engine.cc), the full-pass
     estimate (src/runtime/partition_sweep.cc) and the device staging
     sweep that sizes its table (src/groupby/staging.cc). A group-by that
     needs a group count takes the router's; it does not sketch its own.

Usage:
  scripts/blusim_lint.py [--root DIR] [--compile-commands JSON] [-q]
  scripts/blusim_lint.py --self-test

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import itertools
import json
import os
import re
import sys

# --- check A: include layering ------------------------------------------

# Band per src/ subdirectory; an include of directory D from directory S is
# legal iff BAND[D] < BAND[S] or D == S. Bands mirror the lock-rank bands
# in src/common/lockdep.h (outer layers include inner layers, never the
# reverse).
LAYER_BANDS = {
    "common": 0,
    "columnar": 1,
    "obs": 1,
    "runtime": 2,
    "gpusim": 3,
    "sched": 4,
    "groupby": 5,
    "sort": 5,
    "join": 5,
    "core": 6,
    "serve": 7,
    "workload": 7,
    "harness": 8,
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

# --- check B: metric families -------------------------------------------

METRIC_NAME_RE = re.compile(r"^blusim_[a-z0-9_]+$")
REGISTRATION_RE = re.compile(
    r'Get(Counter|Gauge|Histogram)\(\s*\n?\s*"(blusim_[A-Za-z0-9_]*)"')
LITERAL_RE = re.compile(r'"(blusim_[A-Za-z0-9_]+)"')
DOC_TOKEN_RE = re.compile(r"blusim_[a-z0-9_{},]+")

# Metric-family literals that window.cc builds samples for directly
# (no Get* call); their type comes from this table.
DIRECT_SAMPLE_TYPES = {
    "blusim_latency_window_p50_us": "Gauge",
    "blusim_latency_window_p95_us": "Gauge",
    "blusim_latency_window_p99_us": "Gauge",
    "blusim_latency_window_count": "Gauge",
    "blusim_slo_ok_total": "Counter",
    "blusim_slo_breach_total": "Counter",
    "blusim_slo_shed_total": "Counter",
    "blusim_slo_window_breach": "Gauge",
    "blusim_slo_window_shed": "Gauge",
    "blusim_slo_burn_permille": "Gauge",
    "blusim_slo_target_us": "Gauge",
}

# --- check C: raw lock/thread primitives --------------------------------

RAW_PRIMITIVES = [
    "std::mutex",
    "std::recursive_mutex",
    "std::timed_mutex",
    "std::shared_mutex",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
    "std::thread",
    "pthread_mutex",
    "pthread_create",
]
# std::condition_variable is banned, std::condition_variable_any (which
# waits on the annotated MutexLock) is the sanctioned one -- checked
# separately so the suffix disambiguates.
CONDVAR_RE = re.compile(r"std::condition_variable(?!_any)")
PRIMITIVE_ALLOWLIST = {
    "src/common/annotations.h",   # defines common::Mutex over std::mutex
    "src/common/lockdep.h",       # lockdep sits below the instrumented Mutex
    "src/common/lockdep.cc",
    "src/common/thread.h",        # the one sanctioned std::thread wrapper
}

# --- check D: unseeded nondeterminism -----------------------------------

NONDET_RES = [
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bl?l?drand48\s*\("), "drand48()"),
]
NONDET_EXEMPT_PREFIX = "src/harness/"

# --- check E: one group-by price ----------------------------------------

PRICE_PRIMITIVE_RE = re.compile(
    r"\b(HostGroupByTime|HostFusedStageTime|GroupByKernelTime|"
    r"FusedScanAggregateTime|HashTableInitTime)\s*\(")
PRICE_CLIENTS = ("src/core/", "src/groupby/partitioned.cc")

# --- check F: per-row key and predicate calls ---------------------------

PER_ROW_RE = re.compile(
    r"\bRowMatchesPredicates\s*\(|(?:\.|->)\s*(?:PackKey|KeyHash)\s*\(|"
    r"\bFillWideKey\s*\(")
# The predicate kernel and the key kernel, whose one-row key entry points
# (test oracles) are defined in terms of the batch calls.
BATCH_KERNEL_FILES = {
    "src/runtime/predicate.h",
    "src/runtime/predicate.cc",
    "src/runtime/groupby_plan.h",
    "src/runtime/groupby_plan.cc",
}
# Per-row aggregation and per-cell copies: AGGD runs a typed loop per slot
# (runtime::AccumulateSlot) and results are gathered a column at a time
# (Column::AppendRows). The one-row forms stay as the test oracles, in the
# files that define them.
PER_CELL_RE = re.compile(
    r"\bAccumulateRow\s*\(|(?:\.|->)\s*AppendFrom\s*\(")
PER_CELL_ORACLE_FILES = {
    "src/columnar/column.h",
    "src/columnar/column.cc",
    "src/runtime/group_result.h",
    "src/runtime/group_result.cc",
}

# --- check G: one group-count estimate ----------------------------------

KMV_RE = re.compile(r"\bKmvSketch\b")
ESTIMATE_FILES = {
    "src/common/kmv.h",
    "src/common/kmv.cc",
    "src/core/engine.cc",
    "src/runtime/partition_sweep.cc",
    "src/groupby/staging.cc",
}


class Finding:
    def __init__(self, check, path, line, message):
        self.check = check
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"[{self.check}] {where}: {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving newlines
    (so reported line numbers stay valid). Keeps include directives'
    quoted paths intact -- check A parses raw lines instead."""
    out = []
    i, n = 0, len(text)
    mode = None  # None | "line" | "block" | "str" | "chr"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "str"
                out.append(" ")
                i += 1
            elif c == "'":
                mode = "chr"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif mode == "line":
            if c == "\n":
                mode = None
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # str / chr
            quote = '"' if mode == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                mode = None
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def iter_source_files(root):
    src = os.path.join(root, "src")
    for dirpath, _, files in os.walk(src):
        for name in sorted(files):
            if name.endswith((".cc", ".h")):
                yield os.path.relpath(os.path.join(dirpath, name), root)


def check_layering(root, files):
    findings = []
    for rel in files:
        parts = rel.replace(os.sep, "/").split("/")
        if len(parts) < 3 or parts[0] != "src":
            continue
        src_dir = parts[1]
        src_band = LAYER_BANDS.get(src_dir)
        if src_band is None:
            findings.append(Finding(
                "layering", rel, 0,
                f"directory src/{src_dir}/ is not in the layering map; "
                "add it to LAYER_BANDS in scripts/blusim_lint.py"))
            continue
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                m = INCLUDE_RE.match(line)
                if not m:
                    continue
                inc = m.group(1)
                inc_dir = inc.split("/", 1)[0]
                if "/" not in inc or inc_dir not in LAYER_BANDS:
                    continue  # system or local include
                if inc_dir == src_dir:
                    continue
                inc_band = LAYER_BANDS[inc_dir]
                if inc_band >= src_band:
                    kind = ("upward" if inc_band > src_band
                            else "same-band cross-directory")
                    findings.append(Finding(
                        "layering", rel, lineno,
                        f'{kind} include: src/{src_dir}/ (band {src_band}) '
                        f'may not include "{inc}" (band {inc_band})'))
    return findings


def expand_doc_token(token):
    """Expands `blusim_latency_window_{p50,p95,p99}_us` style tokens."""
    names = [token]
    while any("{" in n for n in names):
        expanded = []
        for n in names:
            m = re.search(r"\{([^{}]*)\}", n)
            if not m:
                expanded.append(n)
                continue
            for alt in m.group(1).split(","):
                expanded.append(n[:m.start()] + alt + n[m.end():])
        names = expanded
    return [n.rstrip("_") for n in names]


def load_doc_inventory(root):
    doc = os.path.join(root, "docs", "observability.md")
    names = set()
    if not os.path.exists(doc):
        return names
    with open(doc, encoding="utf-8") as f:
        for token in DOC_TOKEN_RE.findall(f.read()):
            for name in expand_doc_token(token):
                if METRIC_NAME_RE.match(name):
                    names.add(name)
    return names


def check_metrics(root, files):
    findings = []
    doc_names = load_doc_inventory(root)
    family_types = {}   # name -> {type: first (path, line)}
    call_sites = {}     # (type, name) -> [(path, line)]

    for rel in files:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = f.read()
        for m in REGISTRATION_RE.finditer(text):
            mtype, name = m.group(1), m.group(2)
            lineno = text.count("\n", 0, m.start()) + 1
            family_types.setdefault(name, {}).setdefault(mtype, (rel, lineno))
            call_sites.setdefault((mtype, name), []).append((rel, lineno))
        # Any other blusim_* literal (direct MetricSample construction,
        # e.g. obs/window.cc) still has to obey naming + inventory rules.
        for m in LITERAL_RE.finditer(text):
            name = m.group(1)
            lineno = text.count("\n", 0, m.start()) + 1
            if name in DIRECT_SAMPLE_TYPES:
                mtype = DIRECT_SAMPLE_TYPES[name]
                family_types.setdefault(name, {}).setdefault(
                    mtype, (rel, lineno))
            elif name not in family_types and not re.match(
                    r"^blusim_(log|lint|lockdep|bench|check)", name):
                # Unknown blusim_ literal in a metric-bearing tree: treat
                # as a family so naming + inventory still apply.
                family_types.setdefault(name, {}).setdefault(
                    "Unknown", (rel, lineno))

    for name, types in sorted(family_types.items()):
        path, lineno = next(iter(types.values()))
        if not METRIC_NAME_RE.match(name):
            findings.append(Finding(
                "metrics", path, lineno,
                f"metric family '{name}' must match blusim_[a-z0-9_]+"))
        if len(types) > 1:
            findings.append(Finding(
                "metrics", path, lineno,
                f"metric family '{name}' registered with conflicting types "
                f"{sorted(types)} (each family has exactly one type)"))
        for mtype in types:
            if mtype == "Counter" and not name.endswith("_total"):
                findings.append(Finding(
                    "metrics", path, lineno,
                    f"counter family '{name}' must end in _total"))
            if mtype in ("Gauge", "Histogram") and name.endswith("_total"):
                findings.append(Finding(
                    "metrics", path, lineno,
                    f"{mtype.lower()} family '{name}' must not end in _total "
                    "(reserved for counters)"))
        if doc_names and name not in doc_names:
            findings.append(Finding(
                "metrics", path, lineno,
                f"metric family '{name}' missing from the "
                "docs/observability.md inventory"))

    # Registering one family from several sites with different labels is
    # fine (per-path counters); registering it under two *types* is caught
    # above via family_types. call_sites is kept for future checks.
    del call_sites
    return findings


def check_primitives(root, files):
    findings = []
    for rel in files:
        norm = rel.replace(os.sep, "/")
        if norm in PRIMITIVE_ALLOWLIST:
            continue
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(text.splitlines(), 1):
            for prim in RAW_PRIMITIVES:
                if prim in line:
                    # std::this_thread::sleep_for etc. is fine; the ban is
                    # on the thread/mutex *types*.
                    if prim == "std::thread" and "std::this_thread" in line:
                        continue
                    findings.append(Finding(
                        "primitives", rel, lineno,
                        f"raw {prim} outside the annotated chokepoints; use "
                        "common::Mutex / common::MutexLock / common::Thread "
                        "(src/common/annotations.h, src/common/thread.h)"))
            if CONDVAR_RE.search(line):
                findings.append(Finding(
                    "primitives", rel, lineno,
                    "std::condition_variable cannot wait on the annotated "
                    "MutexLock; use std::condition_variable_any"))
    return findings


def check_nondeterminism(root, files):
    findings = []
    for rel in files:
        norm = rel.replace(os.sep, "/")
        if norm.startswith(NONDET_EXEMPT_PREFIX):
            continue
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(text.splitlines(), 1):
            for pattern, label in NONDET_RES:
                if pattern.search(line):
                    findings.append(Finding(
                        "nondeterminism", rel, lineno,
                        f"{label} is unseeded nondeterminism; draw from "
                        "common/rng.h with an explicit seed"))
    return findings


def check_price(root, files):
    findings = []
    for rel in files:
        norm = rel.replace(os.sep, "/")
        if not norm.startswith(PRICE_CLIENTS):
            continue
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(text.splitlines(), 1):
            m = PRICE_PRIMITIVE_RE.search(line)
            if m:
                findings.append(Finding(
                    "price", rel, lineno,
                    f"direct CostModel::{m.group(1)} call; price and charge "
                    "a group-by through src/groupby/price.h"))
    return findings


def check_per_row(root, files):
    findings = []
    for rel in files:
        norm = rel.replace(os.sep, "/")
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(text.splitlines(), 1):
            m = None if norm in BATCH_KERNEL_FILES else PER_ROW_RE.search(line)
            if m:
                call = re.sub(r"\s+", "", m.group(0)).lstrip(".->")
                findings.append(Finding(
                    "perrow", rel, lineno,
                    f"per-row {call}...) call; evaluate predicates with "
                    "runtime::SelectRows and pack or hash keys with "
                    "GroupByPlan::PackKeys / FillWideKeys / HashKeys"))
            m = (None if norm in PER_CELL_ORACLE_FILES
                 else PER_CELL_RE.search(line))
            if m:
                call = re.sub(r"\s+", "", m.group(0)).lstrip(".->")
                findings.append(Finding(
                    "perrow", rel, lineno,
                    f"per-row {call}...) call; aggregate a slot at a time "
                    "with runtime::AccumulateSlot and gather columns with "
                    "Column::AppendRows"))
    return findings


def check_estimate(root, files):
    findings = []
    for rel in files:
        if rel.replace(os.sep, "/") in ESTIMATE_FILES:
            continue
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(text.splitlines(), 1):
            if KMV_RE.search(line):
                findings.append(Finding(
                    "estimate", rel, lineno,
                    "KmvSketch outside the group-count estimators; take the "
                    "router's estimate (or runtime::CountDistinctKeys) "
                    "instead of sketching the keys again"))
    return findings


def check_compile_db(root, files, db_path):
    """Every src/ .cc must be in the compile database: a file that is not
    built is a file none of the compiler-enforced checks ever saw."""
    findings = []
    if not db_path:
        return findings
    if not os.path.exists(db_path):
        findings.append(Finding(
            "compiledb", db_path, 0,
            "compile_commands.json not found (configure with "
            "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)"))
        return findings
    with open(db_path, encoding="utf-8") as f:
        entries = json.load(f)
    compiled = set()
    for entry in entries:
        path = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"]))
        try:
            compiled.add(os.path.relpath(path, os.path.abspath(root)))
        except ValueError:
            pass
    for rel in files:
        if rel.endswith(".cc") and rel.replace(os.sep, "/") not in {
                c.replace(os.sep, "/") for c in compiled}:
            findings.append(Finding(
                "compiledb", rel, 0,
                "source file missing from compile_commands.json "
                "(not built => not analyzed)"))
    return findings


def run_checks(root, db_path=None, checks=None):
    files = list(iter_source_files(root))
    findings = []
    enabled = checks or ("layering", "metrics", "primitives",
                         "nondeterminism", "price", "perrow", "estimate",
                         "compiledb")
    if "layering" in enabled:
        findings += check_layering(root, files)
    if "metrics" in enabled:
        findings += check_metrics(root, files)
    if "primitives" in enabled:
        findings += check_primitives(root, files)
    if "nondeterminism" in enabled:
        findings += check_nondeterminism(root, files)
    if "price" in enabled:
        findings += check_price(root, files)
    if "perrow" in enabled:
        findings += check_per_row(root, files)
    if "estimate" in enabled:
        findings += check_estimate(root, files)
    if "compiledb" in enabled and db_path:
        findings += check_compile_db(root, files, db_path)
    return findings


def self_test(repo_root):
    """Runs the checks over the known-good / known-bad fixture trees in
    tests/lint_fixtures/ and verifies each bad fixture trips exactly the
    check named by its directory."""
    fixtures = os.path.join(repo_root, "tests", "lint_fixtures")
    if not os.path.isdir(fixtures):
        print(f"self-test: fixture dir {fixtures} missing", file=sys.stderr)
        return 2
    failures = []
    cases = sorted(os.listdir(fixtures))
    for case in cases:
        case_root = os.path.join(fixtures, case)
        if not os.path.isdir(case_root):
            continue
        findings = run_checks(case_root)
        checks_hit = {f.check for f in findings}
        if case.startswith("good"):
            if findings:
                failures.append(
                    f"{case}: expected clean, got "
                    + "; ".join(str(f) for f in findings))
        elif case.startswith("bad_"):
            expected = case[len("bad_"):].split("__", 1)[0]
            if expected not in checks_hit:
                failures.append(
                    f"{case}: expected a '{expected}' finding, got "
                    f"{sorted(checks_hit) or 'none'}")
        else:
            failures.append(f"{case}: fixture must be good* or bad_<check>*")
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test: {len(cases)} fixtures ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--compile-commands", default=None, metavar="JSON",
                        help="compile_commands.json to cross-check "
                             "(every src/*.cc must be built)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the lint over tests/lint_fixtures/")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if args.self_test:
        sys.exit(self_test(root))

    if not os.path.isdir(os.path.join(root, "src")):
        print(f"error: {root}/src not found (wrong --root?)", file=sys.stderr)
        sys.exit(2)

    findings = run_checks(root, args.compile_commands)
    for finding in findings:
        print(finding)
    if not args.quiet:
        n_files = sum(1 for _ in iter_source_files(root))
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"blusim_lint: {n_files} files, {status}")
    sys.exit(1 if findings else 0)


if __name__ == "__main__":
    main()
