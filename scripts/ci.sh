#!/usr/bin/env bash
# CI gate: vet, build (amd64, and arm64 for the Go versions of the three SSE2
# files' kernels: DotI8, the MatMat and MatNegL1 sweeps on query lanes and
# MatVec's and the leftover queries' sweeps on row lanes, Axpy, the counting
# pass's BucketKeys, and the training kernels: the four-row Dot, Adam's row
# step, ConvE's 3x3 convolution and the KvsAll per-entity step's two halves,
# AxpyGather for the entity row and AxpyScatter for the query rows), the program
# gate (every main package is a command under cmd/ with a main_test.go),
# race-checked tests, the benchmark module and its smoke, a serving-layer race gate, the
# decoder / log-framing / projection / counting-pass / sweep-kernel /
# checkpoint-loader fuzz smokes, the vecmath bounds-check budget and loop
# alignment, the five line budgets and the flag budget, then
# the end-to-end gates on real binaries: training determinism, WAL
# compatibility, live mutation, kgserve smoke, crash-resume, fleet fault
# tolerance, gob-to-flat conversion of a pinned gob checkpoint (which every
# other reader refuses, naming kgconvert), and flat serving with hot swap.
# Discovery and the evaluation protocol (both sides) rank through one
# concurrent block scheduler (internal/eval.(*Ranker).RankTriples), so the
# race detector is mandatory, not optional, on every PR. The determinism gate
# trains the same tiny dataset at two worker counts under both objectives and
# requires byte-identical checkpoints — the guarantee the chunked gradient
# reduction provides.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...
# vecmath has SSE2 kernels on amd64 only — DotI8's body (int8_amd64.s), the
# query-lane sweeps under MatMat and MatNegL1, the one-query sweeps under
# MatVec and their leftover queries, and Axpy's and BucketKeys' bodies
# (sweep_amd64.s), and
# the four-row Dot under DotRows and QueryDots, AdamRow, Conv3x3ReLU,
# AxpyGather, AxpyScatter and SumInto (train_amd64.s): keep the Go versions
# the other ports build (int8_generic.go, sweep_generic.go,
# train_generic.go) alive.
GOARCH=arm64 go build ./...

echo "== every program is run =="
# A main package outside cmd/ is a program no test and no gate runs: six
# example programs sat in examples/ compiled and never run until their
# quoted output no longer matched what they printed. Examples are Example
# functions with an // Output: block, which go test runs. Every command
# under cmd/ has a main_test.go.
mains="$(go list -f '{{if eq .Name "main"}}{{.ImportPath}} {{.Dir}}{{end}}' ./... | grep -v '^$' || true)"
while read -r pkg dir; do
  case "$pkg" in
    repro/cmd/*) ;;
    *) echo "program gate FAILED: main package $pkg is outside cmd/" >&2; exit 1 ;;
  esac
  if [ ! -f "$dir/main_test.go" ]; then
    echo "program gate FAILED: $pkg has no main_test.go" >&2
    exit 1
  fi
done <<<"$mains"
echo "program gate: $(wc -l <<<"$mains") main packages, all under cmd/ with a main_test.go"

echo "== go test -race =="
go test -race ./...

echo "== benchmark module =="
# bench/ is a nested module (replace repro => ../), invisible to the root
# "go test ./...": build and test it here so a signature change in
# internal/* that breaks the benchmark fails CI, not the next benchmark run.
# The smoke runs all five workloads on a toy graph with their output checks.
go test -C bench ./...
bash bench/run.sh -smoke >/dev/null

echo "== serving-layer race gate =="
# The serving layer multiplexes one model across request goroutines, a
# single-flight group, and a discovery semaphore; its suite (and the
# kgserve wiring tests) must pass under the race detector on every PR.
go test -race ./internal/serve/... ./cmd/kgserve/...

echo "== request-decoder fuzz smoke =="
go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 10s ./internal/serve

echo "== log-framing fuzz smoke =="
# Every durable log (job journal, fleet checkpoint, mutation log) is recovered
# by internal/wal.Scan from whatever a crash left on disk: it must return the
# longest valid prefix of any byte soup without panicking, stably, and never
# let garbage extend it.
go test -run '^$' -fuzz '^FuzzScan$' -fuzztime 10s ./internal/wal

echo "== journal-decoder fuzz smoke =="
# What the job journal adds to the framing: no record without a header, no
# relation twice, the same records on a re-decode of the prefix.
go test -run '^$' -fuzz '^FuzzJournalDecode$' -fuzztime 10s ./internal/jobs

echo "== fleet wire-decoder fuzz smoke =="
# Every coordinator endpoint ingests bytes from workers that may be killed
# mid-write or partitioned mid-retry; arbitrary bodies must never panic and
# must always produce well-formed JSON responses.
go test -run '^$' -fuzz '^FuzzFleetDecode$' -fuzztime 10s ./internal/fleet

echo "== mutation-decoder fuzz smoke =="
# The /mutate endpoint ingests client-authored batches and the mutation log
# replays whatever a crash left on disk; both decoders must survive any byte
# soup without panicking, and rejected batches must never mutate the graph.
go test -run '^$' -fuzz '^FuzzMutationDecode$' -fuzztime 10s ./internal/mutate

echo "== projection fuzz smoke =="
# Any triple list — self-loops, parallel and reversed edges, isolated
# entities — must project to sorted, duplicate-free, symmetric rows whose
# triangle counts equal those of a dense adjacency matrix built from the
# same triples. The corpus starts from the tie-heavy shapes (a star plus a
# clique, an equal-degree ring): Triangles ranks nodes by (degree, ID),
# splits each rank-space row at the node's own rank and walks a per-node
# cursor through the higher-ranked part, and ties decide that split.
go test -run '^$' -fuzz '^FuzzProjection$' -fuzztime 10s ./internal/graphstats

echo "== counting-pass fuzz smoke =="
# Every grouped and batched rank is read off eval.rankRow's counting pass,
# which turns every score into a bucket key clamped to [0, 1025] before the
# float is converted, counts the keys that hold no target in a histogram and
# searches the rest: it must agree with a naive per-target count — and never
# index out of range — on any row, including NaN, ±Inf, tie-heavy, ulp-wide
# and overflowing target ranges and scores far outside a narrow one.
go test -run '^$' -fuzz '^FuzzCountingPass$' -fuzztime 10s ./internal/eval

echo "== sweep-kernel fuzz smoke =="
# MatMat and MatNegL1 run four queries per SSE2 register on amd64, their one
# to three leftover queries (one to nine are drawn) the one-query kernels,
# and Axpy and BucketKeys four elements (BucketKeys also on 0 to 9 of them,
# its ragged tail, and with t on bucket edges and past ±2^31); the training
# kernels (the four-row Dot, Adam's row step, a 3x3 convolution 1 to 8
# outputs wide and the KvsAll step) run at the drawn width. Any float bits (NaN payloads, subnormals, infinities) at
# any shape must come out as the scalar Go loops they replace compute them,
# bit for bit, the NaN blocks included. At the same width HolE's two
# circular kernels, Correlate and Convolve, must match their modular float64
# loops bit for bit, and give NaN wherever those loops do.
go test -run '^$' -fuzz '^FuzzSweepKernels$' -fuzztime 10s ./internal/vecmath

echo "== checkpoint-loader fuzz smoke =="
# Flat checkpoints of all six models, mutated with both CRCs resealed so the
# mutations reach the header's meaning: the loader must return a model or an
# error, never panic, and allocate no more than a small multiple of the
# file's size, whatever sizes the header claims.
go test -run '^$' -fuzz '^FuzzLoadFlat$' -fuzztime 10s ./internal/kge

echo "== vecmath bounds-check budget =="
# MatVec's 4-row kernel, Dot and L1Distance are written so that the
# compiler drops their per-element bounds checks (one index check left in the
# MatVec inner loop where there were ten). No test can see that and an
# innocent edit undoes it, so hold vecmath.go to the number of index checks
# it had when the kernels were written. amd64 is named so the count means
# the same on any host; zero would mean the diagnostic itself went away
# (12 since the squared-L2 kernels and the unused helpers went; 14 before).
bce_budget=12
bce_found="$(GOARCH=amd64 go build -gcflags=-d=ssa/check_bce/debug=1 ./internal/vecmath 2>&1 \
  | grep -c 'vecmath\.go:.*Found IsInBounds' || true)"
if [ "$bce_found" -lt 1 ] || [ "$bce_found" -gt "$bce_budget" ]; then
  echo "bounds-check budget FAILED: vecmath.go has $bce_found IsInBounds checks, budget 1..$bce_budget" >&2
  GOARCH=amd64 go build -gcflags=-d=ssa/check_bce/debug=1 ./internal/vecmath 2>&1 | grep 'vecmath\.go' >&2 || true
  exit 1
fi
echo "vecmath.go: $bce_found index checks (budget $bce_budget)"

echo "== vecmath loop alignment =="
# Every loop of the three SSE2 files starts on a 64-byte boundary: a PCALIGN
# $64 stands before each label a backward branch of its TEXT block targets.
# Without it an edit anywhere earlier in the package moves every later
# kernel's loops across fetch boundaries, and a benchmark verdict on an
# unrelated change swings with the layout (seen at +6 % wall on
# sweep_pruned, which ran none of the edited code).
loops="$(awk '
  FNR == 1 || /^TEXT/ { delete def; delete aligned }
  /^[A-Za-z_][A-Za-z0-9_]*:/ {
    lab = $1; sub(/:.*/, "", lab)
    def[lab] = FNR; aligned[lab] = (prev ~ /^[ \t]*PCALIGN[ \t]+[$]64/)
  }
  /^[ \t]+J[A-Z]+[ \t]+[A-Za-z_]/ && ($2 in def) {
    print (aligned[$2] ? "aligned " : "UNALIGNED ") FILENAME ":" FNR ": " $1 " " $2
  }
  NF { prev = $0 }
' internal/vecmath/*_amd64.s)"
if [ -z "$loops" ] || grep -q '^UNALIGNED' <<<"$loops"; then
  echo "loop alignment FAILED: backward branches to a label without PCALIGN \$64 before it (or none found):" >&2
  grep '^UNALIGNED' <<<"$loops" >&2 || true
  exit 1
fi
echo "internal/vecmath/*_amd64.s: $(wc -l <<<"$loops") backward branches, every target after a PCALIGN \$64"

echo "== line budgets =="
# ROADMAP's "small" is counted in non-test lines, so growth is a reviewed edit
# of a number here, not drift. Lower a budget whenever its count falls.
hold_lines() {
  local label=$1 budget=$2 found
  shift 2
  found="$(find "$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"
  if [ "$found" -gt "$budget" ]; then
    echo "line budget FAILED: $label have $found non-test lines, budget $budget" >&2
    exit 1
  fi
  echo "$label: $found non-test lines (budget $budget)"
}
# The four packages every sweep and every training step runs through: the
# count once KvsAll read its contexts off the graph's index rows and
# exhaustive discovery counted a relation with RelationLen (5 294 once a
# KvsAll chunk kept its entity rows in product form (its
# upstream and query rows), the merge built them and resolved each buffer's
# table once per step); 5 235 once triple
# classification (eval/classify.go), Bernoulli negative
# sampling and eval's second Pearson correlation went (5 468 once
# eval.MRROfRanks went (core.Result.MRR reads eval.Aggregate),
# core.RelationDone lost Index and Total, and MIXED EXPLORATION's ε became a
# constant; 5 497 once
# ExhaustiveDiscover shared DiscoverFacts' relation loop, built the
# complement row by row from the graph's index and read CHAI's rules off it,
# in place of the CandidateRule types and their maps; 5 601 once
# ExhaustiveStats lost the wall-clock fields Result.Stats already
# carries, and DiscoverFacts refused a negative TopN or MaxCandidates; 5 608
# once a strategy became an immutable value, Bind, WeightCacher and the
# per-strategy memo went, and DiscoverFacts held line 7's statistic itself;
# 5 683 once kge.LoadAuto and its gob sniff went, so that readers open flat
# checkpoints only; 5 709 once ranking returned ranks only, without each
# candidate's sweep score, and the pooled score matrix lost its shrink
# policy; 5 754 once
# eval.rankRow counted a row by SSE2 bucket keys and a histogram, in place of
# its bucket index and the branches around it, and the same 5 754
# once checkpoint loaders checked the tables' shapes against the records
# before allocating them, and HolE's import of internal/fft went; 5 726 once
# kge.Model was sealed and the per-row fallbacks, run-time model checks and
# eval.CalibrationOptions went; 5 761 once discovery's extra seen-triple
# filter went; 5 768 once TransE's squared-L2 norm, discovery's probability
# cutoff and filtered negative sampling went; 5 837 with the training loops' float work
# moved into vecmath's lane kernels; 5 871 with one row-indexed gradient
# store and the optimizer step sharded per row; 5 872 once no command could
# build a prune index or name a sidecar; 5 900 with kge's pooled sweep
# queries; 5 877 with Evaluate's subject side ranked by eval's one
# scheduler; 5 879 with TransE's L1 sweep in vecmath; 5 884 with one ranking
# scheduler, in eval; 5 978 with core.rankAll beside eval.Evaluate's pool).
hold_lines 'internal/{kge,eval,train,core}' 5290 \
  internal/kge internal/eval internal/train internal/core
# The packages around the sweep — journal, mutation log, fleet, server, the
# two that put bytes on disk for them, and the HTTP edge they share: the
# count once the dirty set reverted its batches with Add; 5 202 once
# internal/wire held the one body decoder, reply writers, JSON
# client and Prometheus writer that kgserve, the fleet and kgdiscover -fleet
# each kept a copy of (5 204 without internal/wire, once jobs.Open became the
# one journal step of jobs.Run and the fleet coordinator, kgserve answered
# /query and /discover through one cache/single-flight helper, and
# jobs.Config.QueueDepth became a constant; 5 212 once jobs.Run refused a
# negative top_n or max_candidates before creating a journal, as /discover,
# /jobs and /sweep already did; 5 209 once the dirty set resolved
# its strategy once and computed its statistic on both graphs, in place of
# binding two copies; 5 218 once the server and the
# fleet opened checkpoints through kge.OpenMapped alone, the dirty set netted
# the batches, and kgmutate checked its baseline with jobs.CheckHeader; 5 219
# once a mutation batch recorded its net triples in place of the live
# projection and the entity supersets, and the dirty set came from the
# strategy's own weights; 5 310
# once a job's final state and its lifecycle counter changed under one lock,
# and the server and the fleet refused max_candidates above
# core.MaxCandidatesCeiling; 5 316 once
# /discover refused repeated relations and keyed its cache on defaulted
# options, and the fleet wire lost MaxIterations; the same 5 316 once the
# fleet coordinator lost its one-shot mode; 5 360 once the fleet's wire
# comment stopped naming
# calibrators; 5 361 once the fleet worker lost its
# fault-injection knobs to the in-process fault matrix; 5 410 once the
# server lost its prune options and its registry resolves selectors in one
# place; 5 488 with /query's bounded top-k heap in serve; 5 440 with one
# discover-request parser in serve; 5 459 when the two logs became
# internal/wal).
hold_lines 'internal/{jobs,mutate,fleet,serve,fsio,wal,wire}' 5200 \
  internal/jobs internal/mutate internal/fleet internal/serve internal/fsio internal/wal internal/wire
# The triple store: one eager, array-backed index per relation, the count
# once each index entry carried its triple's sequence number in place of the
# two positional triple copies and their locations, and AddAll built the
# index in one counting sort (936 once Dict.SortedNames and LoadTSVFile,
# which only tests called, went; 961
# once kg.Split always kept valid and test vocabulary in train and
# SplitOptions.NoUnseen went; 965 once the membership map, the lazily
# rebuilt side tables and BuildIndexes went; 980 before).
hold_lines 'internal/kg' 935 internal/kg
# The graph statistics every node-statistic strategy reads: the count once
# SquareClustering computed c4 in closed form from one walk of the
# neighbours' rows, in place of NetworkX's neighbour-pair loop (560 before).
hold_lines 'internal/graphstats' 550 internal/graphstats
# The commands: flag parsing and wiring only, so a command that grows is a
# package that should have (1 609 before kgdiscover -fleet posted its sweep
# through internal/wire, and kggen refused -scale where it is ignored and
# kgmutate read -batch under the body rule /mutate uses; 1 629 before the
# nine flags the flag budget
# below names went and kggen refused custom flags beside -preset; 1 642
# before every reader but kgconvert opened
# flat checkpoints only and kgmutate checked its baseline with
# jobs.CheckHeader; 1 645 before kgstats drew its histogram bars
# with strings.Repeat; 1 736 before kgfleet coord's sixteen one-shot
# flags went; 1 741 before the kgfleet worker's four fault flags went; 1 818
# before -prune, kgtrain -format and kgconvert -to went).
hold_lines 'cmd/*/main.go' 1568 cmd

echo "== flag budget =="
# Every boolean or mode flag is a second code path each test has to cover,
# so a new flag is a reviewed edit of this number, like a line budget:
# results/pr49/flags.md gives every flag's verdict (127 before kgconvert
# -force, kgdiscover's and kgmutate's -rank_filtered and -cache_weights,
# kgeval -classify and -seed, kggen -stats and kgtrain -bernoulli went).
flag_budget=118
flags_found="$(cat cmd/*/main.go | grep -oE '\b(fs|flag)\.((String|Int|Int64|Uint|Uint64|Bool|Float64|Duration)(Var)?|Var|Func|BoolFunc|TextVar)\(' | wc -l)"
if [ "$flags_found" -lt 1 ] || [ "$flags_found" -gt "$flag_budget" ]; then
  echo "flag budget FAILED: cmd/*/main.go define $flags_found flags, budget 1..$flag_budget" >&2
  exit 1
fi
echo "cmd/*/main.go: $flags_found flag definitions (budget $flag_budget)"

echo "== determinism smoke =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/kggen" ./cmd/kggen
go build -o "$tmp/kgtrain" ./cmd/kgtrain
"$tmp/kggen" -preset tiny -out "$tmp/data" >/dev/null

digest_of() { sed -n 's/.*sha256 \([0-9a-f]*\).*/\1/p' "$1"; }

# workers=1 and workers=4 must produce byte-identical checkpoints under both
# objectives, for DistMult and for TransE, the one model whose PostBatch
# (the unit-ball projection of the rows a step moved) runs after the sharded
# optimizer step. The kgserve smoke and the hot-swap gate below reuse
# negsample-w1.kge, DistMult's.
for model in distmult transe; do
  pre=""
  if [ "$model" = transe ]; then pre="transe-"; fi
  for obj in negsample kvsall; do
    extra=()
    if [ "$obj" = kvsall ]; then extra=(-kvsall); fi
    run="$tmp/$pre$obj"
    for w in 1 4; do
      "$tmp/kgtrain" -data "$tmp/data" -model "$model" -dim 16 -epochs 2 \
        -seed 11 -workers "$w" "${extra[@]+"${extra[@]}"}" -quiet \
        -out "$run-w$w.kge" >"$run-w$w.log"
    done
    if ! cmp -s "$run-w1.kge" "$run-w4.kge"; then
      echo "determinism smoke FAILED ($model $obj): workers=1 and workers=4 checkpoints differ" >&2
      exit 1
    fi
    d1="$(digest_of "$run-w1.log")"
    d4="$(digest_of "$run-w4.log")"
    if [ -z "$d1" ] || [ "$d1" != "$d4" ]; then
      echo "determinism smoke FAILED ($model $obj): digests '$d1' vs '$d4'" >&2
      exit 1
    fi
    echo "$model $obj: workers-invariant checkpoint sha256 $d1"
  done
done

echo "== WAL-compat gate =="
# One checkpoint per model on the determinism smoke's tiny dataset, each a
# flat file written by kgtrain; the WAL-compat and live-mutation gates below
# use the DistMult one. A journal written under default flags (the OptionsHash
# golden test pins its digest, so every older journal hashes the same) must
# resume to the uninterrupted run's bytes.
go build -o "$tmp/kgdiscover" ./cmd/kgdiscover
for m in transe distmult complex rescal hole conve; do
  "$tmp/kgtrain" -data "$tmp/data" -model "$m" -dim 16 -epochs 1 \
    -seed 11 -quiet -out "$tmp/ident-$m.kge" >/dev/null
done
waldisc() {
  "$tmp/kgdiscover" -data "$tmp/data" -model "$tmp/ident-distmult.kge" \
    -strategy graph_degree -top_n 20 -max_candidates 200 -seed 3 -limit 0 "$@"
}
waldisc -out "$tmp/walfull.tsv" >/dev/null
waldisc -checkpoint "$tmp/compat.wal" >/dev/null
waldisc -checkpoint "$tmp/compat.wal" -resume -out "$tmp/walresumed.tsv" >/dev/null
if ! cmp -s "$tmp/walfull.tsv" "$tmp/walresumed.tsv"; then
  echo "WAL-compat gate FAILED: resuming a complete journal changed the output" >&2
  exit 1
fi
echo "WAL-compat gate: 6 models trained, a complete journal resumes byte-identical"

echo "== live-mutation incremental gate =="
# Apply a mutation batch and re-discover incrementally (only the dirtied
# relations are reswept, the rest splice from the baseline checkpoint), then
# require the TSV byte-identical to a from-scratch sweep over the mutated
# graph. The mutated dataset round-trips through a LibKGE-layout dump so the
# from-scratch run keeps the entity-row alignment the model was trained with.
go build -o "$tmp/kgmutate" ./cmd/kgmutate
# entity_frequency is only sensitive to a relation's own triples, so this
# batch dirties 2 of 6 relations and the other 4 splice from the baseline —
# the gate proves the splice, not just the resweep.
mutdisc() {
  "$tmp/kgdiscover" -data "$1" -model "$tmp/ident-distmult.kge" \
    -strategy entity_frequency -top_n 200 -max_candidates 200 -seed 3 -limit 0 "${@:2}"
}
mutdisc "$tmp/data" -checkpoint "$tmp/mut-base.wal" >/dev/null
# The batch deletes the first two training triples and re-adds the first
# with its endpoints swapped — all names already interned.
awk -F'\t' 'NR<=2 {printf "%s{\"op\":\"delete\",\"s\":\"%s\",\"r\":\"%s\",\"o\":\"%s\"}", sep, $1, $2, $3; sep=","}
            NR==1 {swap=sprintf("{\"op\":\"add\",\"s\":\"%s\",\"r\":\"%s\",\"o\":\"%s\"}", $3, $2, $1)}
            END   {printf ",%s", swap}' "$tmp/data/train.txt" \
  | { printf '{"seq":1,"source":"ci","ops":['; cat; printf ']}'; } >"$tmp/batch.json"
"$tmp/kgmutate" -data "$tmp/data" -model "$tmp/ident-distmult.kge" \
  -baseline "$tmp/mut-base.wal" -batch "$tmp/batch.json" \
  -strategy entity_frequency -top_n 200 -max_candidates 200 -seed 3 -limit 0 \
  -out "$tmp/mut-inc.tsv" -dump-data "$tmp/mutdata" >"$tmp/mutate.log"
spliced="$(sed -n 's/.*spliced \([0-9][0-9]*\) from baseline.*/\1/p' "$tmp/mutate.log")"
if [ -z "$spliced" ] || [ "$spliced" -lt 1 ]; then
  echo "mutation gate FAILED: expected >=1 relation spliced from the baseline, got '$spliced'" >&2
  cat "$tmp/mutate.log" >&2
  exit 1
fi
mutdisc "$tmp/mutdata" -out "$tmp/mut-scratch.tsv" >/dev/null
if ! cmp -s "$tmp/mut-inc.tsv" "$tmp/mut-scratch.tsv"; then
  echo "mutation gate FAILED: incremental TSV differs from from-scratch sweep on the mutated graph" >&2
  exit 1
fi
echo "live-mutation gate: $(sed -n 's/^mutate: //p' "$tmp/mutate.log"), incremental == from-scratch"

echo "== kgserve end-to-end smoke =="
# Boot the real server binary on a random port over a tiny dataset, check
# health, discover the same facts twice (the second answer must come from
# the response cache, observable via /metrics), then SIGTERM and require a
# clean graceful exit.
go build -o "$tmp/kgserve" ./cmd/kgserve
"$tmp/kgserve" -data "$tmp/data" -model "$tmp/negsample-w1.kge" \
  -addr 127.0.0.1:0 >"$tmp/serve.log" 2>&1 &
serve_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$tmp/serve.log" | head -n 1)"
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "kgserve smoke FAILED: server never reported its address" >&2
  cat "$tmp/serve.log" >&2
  exit 1
fi

curl -fsS "http://$addr/healthz" >/dev/null
discover_body='{"strategy":"graph_degree","top_n":20,"max_candidates":30,"limit":5,"seed":3}'
curl -fsS -X POST -d "$discover_body" "http://$addr/discover" >"$tmp/d1.json"
curl -fsS -X POST -d "$discover_body" "http://$addr/discover" >"$tmp/d2.json"
if ! cmp -s "$tmp/d1.json" "$tmp/d2.json"; then
  echo "kgserve smoke FAILED: cached /discover body differs from the original" >&2
  exit 1
fi
# A body is one JSON value: a second one after it, which could override the
# first, is a 400, not silently dropped.
code_two="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d "$discover_body {\"top_n\":-1}" "http://$addr/discover")"
if [ "$code_two" != 400 ]; then
  echo "kgserve smoke FAILED: a two-value /discover body gave $code_two, want 400" >&2
  exit 1
fi
hits="$(curl -fsS "http://$addr/metrics" | sed -n 's/^kgserve_cache_hits_total \([0-9][0-9]*\)$/\1/p')"
if [ -z "$hits" ] || [ "$hits" -lt 1 ]; then
  echo "kgserve smoke FAILED: /metrics cache-hit counter did not increment (hits='$hits')" >&2
  exit 1
fi
# Live mutation: the batch (built by the incremental gate above) must apply,
# invalidate the cached /discover entry, and show up in the mutation
# counters; replaying the same sequence number must be refused with 409.
curl -fsS -X POST --data-binary "@$tmp/batch.json" "http://$addr/mutate" >"$tmp/mutate-resp.json"
invalidated="$(curl -fsS "http://$addr/metrics" | sed -n 's/^kgserve_cache_invalidations_total \([0-9][0-9]*\)$/\1/p')"
applied="$(curl -fsS "http://$addr/metrics" | sed -n 's/^kgserve_mutation_batches_total \([0-9][0-9]*\)$/\1/p')"
if [ "$applied" != 1 ] || [ -z "$invalidated" ] || [ "$invalidated" -lt 1 ]; then
  echo "kgserve smoke FAILED: mutation counters batches='$applied' invalidations='$invalidated' (want 1, >=1)" >&2
  cat "$tmp/mutate-resp.json" >&2
  exit 1
fi
code_replay="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  --data-binary "@$tmp/batch.json" "http://$addr/mutate")"
if [ "$code_replay" != 409 ]; then
  echo "kgserve smoke FAILED: replayed sequence number gave $code_replay, want 409" >&2
  exit 1
fi
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
  echo "kgserve smoke FAILED: server did not exit cleanly on SIGTERM" >&2
  cat "$tmp/serve.log" >&2
  exit 1
fi
echo "kgserve smoke: cache hits $hits, two-value body 400, $invalidated cache invalidation(s) on mutate, replay 409, clean SIGTERM shutdown"

echo "== crash-resume gate =="
# SIGKILL a checkpointed discovery sweep mid-run, resume it, and require the
# final TSV byte-identical to an uninterrupted run — the durability claim of
# the job journal, proven against a real kill, not a simulated one. The sweep
# is sized so each relation takes ~90ms: slow enough that the 50ms poll below,
# which reacts a few relations late, kills it with most relations still to go
# (4-5 of 12 journaled), fast enough for CI. Ranking speed-ups shrink that
# margin: at max_candidates 16000 with the SSE2 sweep kernels a relation took
# ~40ms and the kill landed after up to 10 of 12.
"$tmp/kggen" -entities 50000 -relations 12 -triples 300000 -seed 13 \
  -out "$tmp/crashdata" >/dev/null
"$tmp/kgtrain" -data "$tmp/crashdata" -model distmult -dim 16 -epochs 1 \
  -seed 5 -quiet -out "$tmp/crash.kge" >/dev/null
disc() {
  "$tmp/kgdiscover" -data "$tmp/crashdata" -model "$tmp/crash.kge" \
    -strategy graph_degree -top_n 4000 -max_candidates 40000 -seed 3 -limit 0 "$@"
}
disc -out "$tmp/full.tsv" >/dev/null

disc -checkpoint "$tmp/crash.wal" >"$tmp/crash.log" 2>&1 &
disc_pid=$!
killed=0
for _ in $(seq 1 600); do
  kill -0 "$disc_pid" 2>/dev/null || break
  if [ "$(grep -c '^relation ' "$tmp/crash.log" || true)" -ge 2 ]; then
    kill -9 "$disc_pid" 2>/dev/null || break
    killed=1
    break
  fi
  sleep 0.05
done
wait "$disc_pid" 2>/dev/null || true
if [ "$killed" -ne 1 ]; then
  echo "crash-resume gate FAILED: sweep finished before it could be killed; enlarge the graph" >&2
  cat "$tmp/crash.log" >&2
  exit 1
fi

disc -checkpoint "$tmp/crash.wal" -resume -out "$tmp/resumed.tsv" >"$tmp/resume.log" 2>&1
n="$(sed -n 's/^checkpoint: resumed \([0-9]*\) of [0-9]* relations.*/\1/p' "$tmp/resume.log")"
m="$(sed -n 's/^checkpoint: resumed [0-9]* of \([0-9]*\) relations.*/\1/p' "$tmp/resume.log")"
if [ -z "$n" ] || [ -z "$m" ] || [ "$n" -lt 1 ] || [ "$n" -ge "$m" ]; then
  echo "crash-resume gate FAILED: resumed '$n' of '$m' relations, want 1 <= N < M" >&2
  cat "$tmp/resume.log" >&2
  exit 1
fi
if ! cmp -s "$tmp/full.tsv" "$tmp/resumed.tsv"; then
  echo "crash-resume gate FAILED: resumed output differs from the uninterrupted run" >&2
  exit 1
fi
echo "crash-resume gate: SIGKILL mid-sweep, resumed $n of $m relations, byte-identical output"

echo "== fleet fault-tolerance gate =="
# Run the crash-resume gate's sweep through the distributed fleet: a serving
# coordinator, kgdiscover -fleet submitting the sweep to it, and two real
# worker processes, one of which is SIGKILLed while it holds a lease. The
# coordinator must reassign the dead worker's units (observable on /metrics)
# and the TSV must still be byte-identical to the single-process reference
# computed above ($tmp/full.tsv).
go build -o "$tmp/kgfleet" ./cmd/kgfleet
"$tmp/kgfleet" coord -lease 1500ms -poll 100ms >"$tmp/fleet-coord.log" 2>&1 &
fleet_pid=$!
fleet_addr=""
for _ in $(seq 1 100); do
  fleet_addr="$(sed -n 's/.*coordinator listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$tmp/fleet-coord.log" | head -n 1)"
  [ -n "$fleet_addr" ] && break
  sleep 0.1
done
if [ -z "$fleet_addr" ]; then
  echo "fleet gate FAILED: coordinator never reported its address" >&2
  cat "$tmp/fleet-coord.log" >&2
  exit 1
fi

disc -fleet "$fleet_addr" -out "$tmp/fleet.tsv" >"$tmp/fleet-disc.log" 2>&1 &
fleet_disc_pid=$!
"$tmp/kgfleet" worker -coord "http://$fleet_addr" -name victim \
  >"$tmp/fleet-victim.log" 2>&1 &
victim_pid=$!
"$tmp/kgfleet" worker -coord "http://$fleet_addr" -name survivor \
  >"$tmp/fleet-survivor.log" 2>&1 &
survivor_pid=$!

# Kill the victim mid-unit once at least one unit is done anywhere. A unit of
# this sweep takes well over 100ms (see the crash-resume gate), but the status
# poll can still catch the victim just as its delivery goes out. So freeze it
# first, give a delivery already on the wire time to land, and SIGKILL it only
# if it still holds its lease; otherwise let it run on and try again.
victim_leased() {
  curl -fsS "http://$fleet_addr/status" 2>/dev/null | grep -c '"state":"leased","worker":"victim"' || true
}
fleet_killed=0
for _ in $(seq 1 600); do
  status="$(curl -fsS "http://$fleet_addr/status" 2>/dev/null || true)"
  # "|| true": pipefail would otherwise abort the script when grep matches
  # nothing, i.e. on every poll before the first unit completes.
  done_units="$(printf '%s' "$status" | grep -o '"state":"done"' | wc -l || true)"
  if [ "$done_units" -ge 1 ] && printf '%s' "$status" | grep -q '"state":"leased","worker":"victim"'; then
    kill -STOP "$victim_pid" 2>/dev/null || break
    sleep 0.2
    if [ "$(victim_leased)" -ge 1 ]; then
      kill -9 "$victim_pid"
      fleet_killed=1
      break
    fi
    kill -CONT "$victim_pid"
  fi
  sleep 0.05
done
wait "$victim_pid" 2>/dev/null || true
if [ "$fleet_killed" -ne 1 ]; then
  echo "fleet gate FAILED: sweep finished before the victim could be killed mid-lease" >&2
  cat "$tmp/fleet-coord.log" >&2
  exit 1
fi

# The sweep must still complete: kgdiscover returns once it has, and the
# coordinator keeps serving, so /metrics stays scrapeable afterwards.
for _ in $(seq 1 1200); do
  kill -0 "$fleet_disc_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$fleet_disc_pid" 2>/dev/null; then
  kill -9 "$fleet_disc_pid"
  echo "fleet gate FAILED: sweep never completed after the worker kill" >&2
  cat "$tmp/fleet-coord.log" >&2
  exit 1
fi
if ! wait "$fleet_disc_pid"; then
  echo "fleet gate FAILED: kgdiscover -fleet exited non-zero" >&2
  cat "$tmp/fleet-disc.log" "$tmp/fleet-coord.log" >&2
  exit 1
fi
reassigned="$(curl -fsS "http://$fleet_addr/metrics" | sed -n 's/^kgfleet_reassignments_total \([0-9][0-9]*\)$/\1/p' || true)"
if [ -z "$reassigned" ] || [ "$reassigned" -lt 1 ]; then
  echo "fleet gate FAILED: expected >=1 reassignment after SIGKILL, /metrics said '$reassigned'" >&2
  exit 1
fi
kill -TERM "$fleet_pid" "$survivor_pid"
wait "$fleet_pid" || { echo "fleet gate FAILED: coordinator unclean exit" >&2; cat "$tmp/fleet-coord.log" >&2; exit 1; }
wait "$survivor_pid" || { echo "fleet gate FAILED: surviving worker unclean exit" >&2; cat "$tmp/fleet-survivor.log" >&2; exit 1; }
if ! cmp -s "$tmp/full.tsv" "$tmp/fleet.tsv"; then
  echo "fleet gate FAILED: fleet TSV differs from the single-process reference" >&2
  exit 1
fi
echo "fleet gate: worker SIGKILLed mid-lease, $reassigned reassignment(s), byte-identical output"

echo "== gob-to-flat conversion gate =="
# Gob is read only by kgconvert, the migration path for gob checkpoints
# already on disk; no command writes it. Convert the checked-in gob checkpoint
# (written once, never regenerated) and require the fingerprint kgconvert
# verifies on the flat output to be the one internal/kge's tests pin.
go build -o "$tmp/kgconvert" ./cmd/kgconvert
gob_fixture_fp=decd60db5e6b022e4ead7c00cae71c7877025eb63cc85c3245e3f6406d4223c9
"$tmp/kgconvert" -in internal/kge/testdata/distmult.kge -out "$tmp/fixture.kgf" >"$tmp/conv.log"
fp_conv="$(sed -n 's/.*fingerprint \([0-9a-f]*\)$/\1/p' "$tmp/conv.log")"
if [ "$fp_conv" != "$gob_fixture_fp" ]; then
  echo "conversion gate FAILED: converted fingerprint '$fp_conv', pinned $gob_fixture_fp" >&2
  exit 1
fi
echo "conversion gate: gob fixture -> flat, fingerprint ${fp_conv:0:12} as pinned"
# Every other reader opens flat only: the same gob file handed to kgdiscover
# must fail, and the error must say how to migrate it.
if "$tmp/kgdiscover" -data "$tmp/data" -model internal/kge/testdata/distmult.kge \
  >"$tmp/gob-refused.log" 2>&1; then
  echo "conversion gate FAILED: kgdiscover accepted a gob checkpoint" >&2
  exit 1
fi
if ! grep -q kgconvert "$tmp/gob-refused.log"; then
  echo "conversion gate FAILED: kgdiscover's refusal of a gob checkpoint does not name kgconvert" >&2
  cat "$tmp/gob-refused.log" >&2
  exit 1
fi
echo "conversion gate: kgdiscover refuses the gob fixture, naming kgconvert"

echo "== flat-checkpoint hot-swap gate =="
# Exercise the multi-model registry over two flat checkpoints: serve one, load
# a second at runtime, route to it by fingerprint prefix, unload the first
# (the default), and require 404s for the unloaded fingerprint while the
# second keeps serving.
"$tmp/kgtrain" -data "$tmp/data" -model distmult -dim 16 -epochs 2 \
  -seed 23 -quiet -out "$tmp/model-b.kge" >"$tmp/model-b.log"
fp_a="$(digest_of "$tmp/negsample-w1.log")"
fp_b="$(digest_of "$tmp/model-b.log")"
if [ -z "$fp_a" ] || [ -z "$fp_b" ] || [ "$fp_a" = "$fp_b" ]; then
  echo "hot-swap gate FAILED: bad fingerprints a='$fp_a' b='$fp_b'" >&2
  exit 1
fi

"$tmp/kgserve" -data "$tmp/data" -model "$tmp/negsample-w1.kge" \
  -addr 127.0.0.1:0 >"$tmp/serve-flat.log" 2>&1 &
flat_pid=$!
flat_addr=""
for _ in $(seq 1 100); do
  flat_addr="$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$tmp/serve-flat.log" | head -n 1)"
  [ -n "$flat_addr" ] && break
  sleep 0.1
done
if [ -z "$flat_addr" ]; then
  echo "hot-swap gate FAILED: the server never reported its address" >&2
  cat "$tmp/serve-flat.log" >&2
  exit 1
fi

swap_body='{"strategy":"graph_degree","top_n":20,"max_candidates":30,"limit":5,"seed":3}'
curl -fsS -X POST -d "{\"path\":\"$tmp/model-b.kge\"}" "http://$flat_addr/models" >/dev/null
models_listed="$(curl -fsS "http://$flat_addr/models" | grep -o '"fingerprint"' | wc -l)"
if [ "$models_listed" -ne 2 ]; then
  echo "hot-swap gate FAILED: expected 2 loaded models, GET /models listed $models_listed" >&2
  exit 1
fi
curl -fsS -X POST \
  -d "{\"model\":\"${fp_b:0:12}\",\"strategy\":\"graph_degree\",\"top_n\":20,\"max_candidates\":30,\"limit\":5,\"seed\":3}" \
  "http://$flat_addr/discover" >/dev/null
curl -fsS -X DELETE "http://$flat_addr/models/$fp_a" >/dev/null
code_unloaded="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d "{\"model\":\"$fp_a\",\"strategy\":\"graph_degree\",\"top_n\":20,\"max_candidates\":30,\"limit\":5,\"seed\":3}" \
  "http://$flat_addr/discover")"
code_default="$(curl -s -o /dev/null -w '%{http_code}' -X POST -d "$swap_body" \
  "http://$flat_addr/discover")"
if [ "$code_unloaded" != 404 ] || [ "$code_default" != 404 ]; then
  echo "hot-swap gate FAILED: unloaded fingerprint gave $code_unloaded, selector-less gave $code_default (want 404/404)" >&2
  exit 1
fi
curl -fsS -X POST \
  -d "{\"model\":\"${fp_b:0:12}\",\"strategy\":\"graph_degree\",\"top_n\":20,\"max_candidates\":30,\"limit\":5,\"seed\":3}" \
  "http://$flat_addr/discover" >/dev/null
kill -TERM "$flat_pid"
wait "$flat_pid" || { echo "hot-swap gate FAILED: flat server unclean exit" >&2; exit 1; }
echo "hot-swap gate: two flat checkpoints, runtime load/route/unload clean, 404 after unload"

echo "CI OK"
