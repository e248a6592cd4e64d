#!/bin/sh
# Developer pre-push check: build, tests, and an observability smoke
# run — a full whyprov pipeline invocation with --stats=json whose
# output must parse as JSON and cover every pipeline layer
# (docs/OBSERVABILITY.md). Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")"

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== stats smoke (whyprov --stats=json on examples/reach.dl)"
out=$(mktemp -t whyprov-stats.XXXXXX)
trap 'rm -f "$out"' EXIT
dune exec --no-build bin/whyprov.exe -- \
  explain examples/reach.dl -q tc -t a,c --stats-out "$out" > /dev/null

# validate_stats parses the dump (with the same JSON parser the
# library uses), checks the schema version, and requires at least one
# counter from each of the eval/closure/encode/sat/enum layers.
dune exec --no-build test/cli/validate_stats.exe -- "$out"

# Independent parse with a system JSON parser, when one is available.
if command -v jq > /dev/null 2>&1; then
  jq -e '.schema == "whyprov.metrics/1"' "$out" > /dev/null
elif command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$out" > /dev/null
fi

echo "== batch smoke (whyprov batch --jobs 2 on examples/reach.dl)"
b1=$(mktemp -t whyprov-batch1.XXXXXX)
b2=$(mktemp -t whyprov-batch2.XXXXXX)
bstats=$(mktemp -t whyprov-batch-stats.XXXXXX)
trap 'rm -f "$out" "$b1" "$b2" "$bstats"' EXIT
dune exec --no-build bin/whyprov.exe -- \
  batch examples/reach.dl -q tc --all --jobs 1 > "$b1"
dune exec --no-build bin/whyprov.exe -- \
  batch examples/reach.dl -q tc --all --jobs 2 --stats-out "$bstats" > "$b2"

# The fan-out must be invisible: 1-worker and 2-worker runs produce
# byte-identical output, and the metrics dump covers the batch layer
# on top of the five pipeline layers.
diff "$b1" "$b2"
dune exec --no-build test/cli/validate_stats.exe -- "$bstats" \
  eval closure encode sat enum batch

# A tuple that is not in the model must fail loudly.
if dune exec --no-build bin/whyprov.exe -- \
     batch examples/reach.dl -q tc -t c,a > /dev/null 2>&1; then
  echo "dev-check: batch should exit non-zero on underivable tuples" >&2
  exit 1
fi

echo "== trace smoke (whyprov --trace / --progress on examples/reach.dl)"
t1=$(mktemp -t whyprov-trace.XXXXXX)
t2=$(mktemp -t whyprov-batch-trace.XXXXXX)
prog=$(mktemp -t whyprov-progress.XXXXXX)
tstats=$(mktemp -t whyprov-trace-stats.XXXXXX)
trap 'rm -f "$out" "$b1" "$b2" "$bstats" "$t1" "$t2" "$prog" "$tstats"' EXIT
dune exec --no-build bin/whyprov.exe -- \
  explain examples/reach.dl -q tc -t a,c --trace "$t1" --stats-out "$tstats" > /dev/null

# validate_trace parses the Chrome trace-event dump, checks per-domain
# begin/end balance and timestamp monotonicity, and requires the listed
# pipeline spans (docs/OBSERVABILITY.md, "Structured event tracing").
# With --stats it also requires a timer for every span name in the
# trace: one span feeds both, so they share one vocabulary.
dune exec --no-build test/cli/validate_trace.exe -- "$t1" --stats "$tstats" \
  analysis.check eval.seminaive closure.build encode.build encode.phi_graph \
  sat.solve enum.next

# Under the batch fan-out every worker domain's per-tuple spans must be
# recorded and balanced.
dune exec --no-build bin/whyprov.exe -- \
  batch examples/reach.dl -q tc --all --jobs 2 --trace "$t2" > /dev/null
dune exec --no-build test/cli/validate_trace.exe -- "$t2" \
  batch.run batch.task

# Live solver telemetry: the end-of-run summary on stderr is
# deterministic on reach.dl (golden-diffed in test/cli too).
dune exec --no-build bin/whyprov.exe -- \
  explain examples/reach.dl -q tc -t a,c --progress > /dev/null 2> "$prog"
diff test/cli/expected_progress.txt "$prog"

echo "== preprocess parity smoke (--no-preprocess must not change answers)"
p1=$(mktemp -t whyprov-pre1.XXXXXX)
p2=$(mktemp -t whyprov-pre2.XXXXXX)
p3=$(mktemp -t whyprov-pre3.XXXXXX)
p4=$(mktemp -t whyprov-pre4.XXXXXX)
trap 'rm -f "$out" "$b1" "$b2" "$bstats" "$t1" "$t2" "$prog" "$tstats" "$p1" "$p2" "$p3" "$p4"' EXIT

# explain: same member sets (and, in --smallest mode, the same order —
# members come out in nondecreasing cardinality and ties are broken by
# the same cardinality-refinement loop) with and without the
# preprocessor.
dune exec --no-build bin/whyprov.exe -- \
  explain examples/reach.dl -q tc -t a,c --smallest > "$p1"
dune exec --no-build bin/whyprov.exe -- \
  explain examples/reach.dl -q tc -t a,c --smallest --no-preprocess > "$p2"
diff "$p1" "$p2"

# batch: per-tuple member SETS are preprocessing-invariant but the
# production order within a tuple is solver-search order, which the
# simplified formula may legitimately change — strip the " N." index
# prefixes and compare sorted.
dune exec --no-build bin/whyprov.exe -- \
  batch examples/reach.dl -q tc --all --jobs 2 \
  | sed 's/^ *[0-9]*\. //' | sort > "$p1"
dune exec --no-build bin/whyprov.exe -- \
  batch examples/reach.dl -q tc --all --jobs 2 --no-preprocess \
  | sed 's/^ *[0-9]*\. //' | sort > "$p2"
diff "$p1" "$p2"

# explain at scale: the uncapped enumeration of tc(v1,v6) on the dense
# TC communities (164 members), same member set raw and preprocessed.
# Only the member lines are kept: --no-preprocess prints no total line.
dune exec --no-build bin/whyprov.exe -- \
  explain test/cli/tc_communities.dl -q tc -t v1,v6 --limit 1000 \
  | sed -n 's/^ *[0-9]*\. //p' | sort > "$p3"
dune exec --no-build bin/whyprov.exe -- \
  explain test/cli/tc_communities.dl -q tc -t v1,v6 --limit 1000 --no-preprocess \
  | sed -n 's/^ *[0-9]*\. //p' | sort > "$p4"
test "$(wc -l < "$p3")" -eq 164
diff "$p3" "$p4"

# satsolve: SAT/UNSAT parity (exit 10/20) on the bundled DIMACS
# fixtures, preprocessed vs raw.
for cnf in examples/cnf/chain.cnf examples/cnf/php43.cnf; do
  pre=0; dune exec --no-build bin/satsolve.exe -- "$cnf" \
    > /dev/null 2>&1 || pre=$?
  raw=0; dune exec --no-build bin/satsolve.exe -- --no-preprocess "$cnf" \
    > /dev/null 2>&1 || raw=$?
  if [ "$pre" != "$raw" ]; then
    echo "dev-check: satsolve preprocessing changed the answer on $cnf ($pre vs $raw)" >&2
    exit 1
  fi
done

echo "== analyzer smoke (whyprov check on examples/)"
# Clean program: exit 0; lint-y program: warnings but exit 0, and exit 1
# under --deny-warnings; broken program: errors and exit 1 (and
# explain must refuse it). See docs/ANALYSIS.md.
dune exec --no-build bin/whyprov.exe -- check examples/reach.dl -q tc > /dev/null
dune exec --no-build bin/whyprov.exe -- check examples/reach.dl -q tc --format json > /dev/null
dune exec --no-build bin/whyprov.exe -- check examples/lint.dl -q tc > /dev/null
if dune exec --no-build bin/whyprov.exe -- \
     check examples/lint.dl -q tc --deny-warnings > /dev/null 2>&1; then
  echo "dev-check: check --deny-warnings should exit non-zero on lint.dl" >&2
  exit 1
fi
if dune exec --no-build bin/whyprov.exe -- \
     check examples/broken.dl > /dev/null 2>&1; then
  echo "dev-check: check should exit non-zero on broken.dl" >&2
  exit 1
fi
if dune exec --no-build bin/whyprov.exe -- \
     explain examples/broken.dl -q path -t a,b > /dev/null 2>&1; then
  echo "dev-check: explain should refuse a program with analyzer errors" >&2
  exit 1
fi

# Analyzer over every bundled workload program (zero errors, classified).
dune exec --no-build test/cli/check_workloads.exe > /dev/null

echo "== check golden (unreachable rules and unused predicates on sliceable.dl)"
a1=$(mktemp -t whyprov-check1.XXXXXX)
trap 'rm -f "$out" "$b1" "$b2" "$bstats" "$t1" "$t2" "$prog" "$tstats" "$p1" "$p2" "$p3" "$p4" "$a1"' EXIT

# WP103 on the two rules that cannot contribute to the query, WP101 on
# the unused predicate; same golden file as the dune test rule, which
# runs from test/cli (hence the relative path).
(cd test/cli && ../../_build/default/bin/whyprov.exe \
  check ../../examples/sliceable.dl -q tc) > "$a1"
diff test/cli/expected_check_sliceable.txt "$a1"

echo "== engine smoke (flat-tuple engine counters on examples/reach.dl)"
# A recursive program must drive every moving part of the flat engine:
# at least two semi-naive rounds, compiled join plans, index probes
# that actually hit, and interner traffic (docs/OBSERVABILITY.md,
# docs/ARCHITECTURE.md). reach.dl is transitive closure, so all of
# these must be nonzero in the stats dump recorded above.
if command -v python3 > /dev/null 2>&1; then
  python3 - "$out" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
checks = {
    "eval.rounds": 2, "eval.join.plans": 1, "eval.join.tasks": 1,
    "eval.join.probes": 1, "eval.index.builds": 1, "eval.index.hits": 1,
    "eval.intern.symbols": 1, "eval.model_facts": 1,
}
bad = [k for k, lo in checks.items() if counters.get(k, 0) < lo]
if bad:
    sys.exit("dev-check: engine counters missing or zero: " + ", ".join(bad))
PY
elif command -v jq > /dev/null 2>&1; then
  jq -e '.counters | (."eval.rounds" >= 2) and (."eval.join.probes" >= 1)
         and (."eval.index.hits" >= 1) and (."eval.intern.symbols" >= 1)' \
    "$out" > /dev/null
fi

echo "== answer smoke (all five whybench workloads, benchmark/README.md)"
# The two Andersen workloads lean hardest on the model's column
# indexes, batch-doctors is the only one that checks batch answers
# (against Naive.why_un) over thousands of closures built through the
# shared instance cache, and explain-dense and decide run the backward
# joins over the dense TC model, whose fully bound atoms probe the row
# table; whybench checks every answer with its solver-free oracles and
# reports "correct":true on its last line only if all were right.
for w in explain-sparse cold-start batch-doctors explain-dense decide; do
  if ! sh benchmark/run.sh --workload "$w" --seconds 1 | tail -n 1 \
       | grep -q '"correct":true'; then
    echo "dev-check: whybench $w gave a wrong answer or failed" >&2
    exit 1
  fi
done

echo "== profile smoke (rule-level profiler, docs/OBSERVABILITY.md)"
pr1=$(mktemp -t whyprov-prof1.XXXXXX)
pr2=$(mktemp -t whyprov-prof2.XXXXXX)
pr3=$(mktemp -t whyprov-prof3.XXXXXX)
trap 'rm -f "$out" "$b1" "$b2" "$bstats" "$t1" "$t2" "$prog" "$tstats" "$p1" "$p2" "$p3" "$p4" "$a1" "$pr1" "$pr2" "$pr3"' EXIT

# --profile must not change explain's stdout, and its JSON document
# must validate (schema, per-rule arithmetic; validate_profile.ml).
dune exec --no-build bin/whyprov.exe -- \
  explain examples/reach.dl -q tc -t a,c --profile="$pr1" > "$a1"
diff test/cli/expected_explain.txt "$a1"
dune exec --no-build test/cli/validate_profile.exe -- "$pr1"

# batch accumulates all worker fixpoints into one document.
dune exec --no-build bin/whyprov.exe -- \
  batch examples/reach.dl -q tc --all --jobs 2 --profile="$pr1" > /dev/null
dune exec --no-build test/cli/validate_profile.exe -- "$pr1"

# The profile subcommand writes the same document, and its per-rule
# firings, derived and tuples sum to the eval.* counters of its
# metrics dump.
dune exec --no-build bin/whyprov.exe -- \
  profile examples/mutual.dl -q even --format json --no-times \
  --stats-out "$pr2" > "$pr1"
dune exec --no-build test/cli/validate_profile.exe -- "$pr1" "$pr2"

# All three bits of the enable word at once (profile, stats, trace):
# explain's stdout is unchanged and the profile and trace validate.
dune exec --no-build bin/whyprov.exe -- \
  explain examples/reach.dl -q tc -t a,c --profile="$pr1" --stats-out "$pr2" \
  --trace "$pr3" > "$a1"
diff test/cli/expected_explain.txt "$a1"
dune exec --no-build test/cli/validate_profile.exe -- "$pr1"
dune exec --no-build test/cli/validate_trace.exe -- "$pr3" --stats "$pr2" \
  eval.seminaive eval.round closure.build

echo "== bench regression gate (--check, EXPERIMENTS.md)"
# Record a fresh baseline over the engine workloads, then gate against
# it: the same run must pass, and an injected 2x slowdown must fail.
bb=$(mktemp -t whyprov-bench-base.XXXXXX)
bslow=$(mktemp -t whyprov-bench-slow.XXXXXX)
trap 'rm -f "$out" "$b1" "$b2" "$bstats" "$t1" "$t2" "$prog" "$tstats" "$p1" "$p2" "$p3" "$p4" "$a1" "$pr1" "$pr2" "$pr3" "$bb" "$bslow"' EXIT
dune exec --no-build bench/main.exe -- \
  --scale 0.05 --stats-out "$bb" engine > /dev/null
dune exec --no-build bench/main.exe -- \
  --scale 0.05 --check "$bb" engine > /dev/null

# Halve every *_s time in the baseline: the (unchanged) fresh run now
# looks 2x slower than "recorded" and the gate must exit non-zero.
if command -v python3 > /dev/null 2>&1; then
  python3 - "$bb" "$bslow" <<'PY'
import json, sys
with open(sys.argv[1]) as f, open(sys.argv[2], "w") as g:
    for line in f:
        row = json.loads(line)
        for k, v in row.items():
            if k.endswith("_s") and isinstance(v, (int, float)):
                row[k] = v / 2.0
        g.write(json.dumps(row) + "\n")
PY
  if dune exec --no-build bench/main.exe -- \
       --scale 0.05 --check "$bslow" engine > /dev/null; then
    echo "dev-check: bench --check should fail against a 2x-faster baseline" >&2
    exit 1
  fi
fi

echo "== hardening smoke (whyfuzz corpus + seeded fuzz, docs/HARDENING.md)"
# Every committed corpus instance, across the default config matrix
# (three solver configs x preprocessing on/off), with every answer
# cross-checked: SAT models evaluated on the original clauses, UNSATs
# DRAT-certified. Exit 1 = a solver bug.
dune exec --no-build bin/whyfuzz.exe -- \
  corpus examples/cnf/corpus --timeout 5 > /dev/null

# A malformed DIMACS file must die with a positioned error, exit 1.
if dune exec --no-build bin/satsolve.exe -- \
     examples/cnf/bad-header.cnf > /dev/null 2>&1; then
  echo "dev-check: satsolve should exit non-zero on bad-header.cnf" >&2
  exit 1
fi

# Deterministic differential fuzz: 50 seeded iterations of random CNFs
# (solver portfolio vs the truth-table oracle) and random Datalog
# programs (engine vs structural reference, why_UN vs the powerset
# oracle). Two runs must agree byte-for-byte, and find nothing.
f1=$(mktemp -t whyfuzz-f1.XXXXXX)
f2=$(mktemp -t whyfuzz-f2.XXXXXX)
trap 'rm -f "$out" "$b1" "$b2" "$bstats" "$t1" "$t2" "$prog" "$tstats" "$p1" "$p2" "$p3" "$p4" "$a1" "$pr1" "$pr2" "$pr3" "$bb" "$bslow" "$f1" "$f2"' EXIT
dune exec --no-build bin/whyfuzz.exe -- \
  fuzz --seed 42 --iters 50 --quiet > "$f1"
dune exec --no-build bin/whyfuzz.exe -- \
  fuzz --seed 42 --iters 50 --quiet > "$f2"
diff "$f1" "$f2"

echo "== docs link check"
# Every relative markdown link and every backticked *.md path in the
# user-facing docs must point at a file that exists.
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'PY'
import glob, os, re, sys
files = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"] + sorted(
    glob.glob("docs/*.md"))
broken = []
for f in files:
    if not os.path.exists(f):
        continue
    text = open(f).read()
    targets = re.findall(r"\]\(([^)#][^)]*)\)", text)
    targets += re.findall(r"`([A-Za-z0-9_./-]+\.md)`", text)
    for t in targets:
        if re.match(r"[a-z]+://|mailto:", t):
            continue
        t = t.split("#")[0]
        if not t:
            continue
        rel = os.path.normpath(os.path.join(os.path.dirname(f), t))
        if not (os.path.exists(rel) or os.path.exists(t)):
            broken.append(f"{f}: {t}")
if broken:
    sys.exit("dev-check: broken doc links:\n  " + "\n  ".join(broken))
PY
fi

echo "== dune build @doc"
# odoc comments across the public .mlis must stay well-formed (a no-op
# where the odoc binary is not installed).
dune build @doc

echo "dev-check: OK"
