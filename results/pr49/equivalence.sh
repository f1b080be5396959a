#!/usr/bin/env bash
# Equivalence of two builds of kggen, kgtrain, kgdiscover and kgmutate:
# datasets, checkpoints, kgdiscover TSVs for all eight strategies, journal
# headers and facts, and kgmutate TSVs in all four build/baseline pairs.
# Usage: bash equivalence.sh <parent bin dir> <change bin dir> <work dir>
set -euo pipefail
P=$1; C=$2; W=$3; rm -rf $W; mkdir -p $W
same() { if cmp -s "$1" "$2"; then echo "equal   $3"; else echo "DIFFER  $3"; fi; }
$P/kggen -preset tiny -out $W/tiny-p -seed 7 >/dev/null
$C/kggen -preset tiny -out $W/tiny-c >/dev/null
for f in train valid test; do same $W/tiny-p/$f.txt $W/tiny-c/$f.txt "kggen tiny $f.txt (parent -seed 7, change no -seed)"; done
$P/kggen -entities 1000 -relations 12 -triples 12000 -seed 5 -out $W/big-p >/dev/null
$C/kggen -entities 1000 -relations 12 -triples 12000 -seed 5 -out $W/big-c >/dev/null
for f in train valid test; do same $W/big-p/$f.txt $W/big-c/$f.txt "kggen custom $f.txt"; done
for ds in tiny big; do
  for m in distmult transe; do
    $P/kgtrain -data $W/$ds-p -model $m -dim 16 -epochs 4 -seed 11 -patience 0 -quiet -out $W/$ds-$m-p.kge > $W/$ds-$m-p.log
    $C/kgtrain -data $W/$ds-p -model $m -dim 16 -epochs 4 -seed 11 -patience 0 -quiet -out $W/$ds-$m-c.kge > $W/$ds-$m-c.log
    same $W/$ds-$m-p.kge $W/$ds-$m-c.kge "kgtrain $ds $m checkpoint ($(sed -n 's/.*sha256 \([0-9a-f]\{12\}\).*/\1/p' $W/$ds-$m-c.log))"
  done
  for s in uniform_random entity_frequency graph_degree cluster_coefficient cluster_triangles cluster_squares inverse_degree mixed_exploration; do
    for b in p c; do
      B=$P; [ $b = c ] && B=$C
      $B/kgdiscover -data $W/$ds-p -model $W/$ds-distmult-p.kge -strategy $s -top_n 100 -max_candidates 200 -seed 7 -limit 0 -out $W/$ds-$s-$b.tsv >/dev/null
    done
    same $W/$ds-$s-p.tsv $W/$ds-$s-c.tsv "kgdiscover $ds $s TSV ($(wc -l < $W/$ds-$s-c.tsv) facts)"
  done
  # kgmutate: baseline journal from each build, one batch, both directions.
  for b in p c; do
    B=$P; [ $b = c ] && B=$C
    $B/kgdiscover -data $W/$ds-p -model $W/$ds-distmult-p.kge -strategy graph_degree -top_n 100 -max_candidates 200 -seed 3 -limit 0 -checkpoint $W/$ds-base-$b.wal >/dev/null
  done
  # Records carry sweep timings; the header (fingerprint, options hash) and
  # the facts must agree.
  for b in p c; do head -1 $W/$ds-base-$b.wal > $W/$ds-hdr-$b; grep -o '"facts":\[[^]]*\]' $W/$ds-base-$b.wal > $W/$ds-facts-$b; done
  same $W/$ds-hdr-p $W/$ds-hdr-c "kgdiscover $ds journal header"
  same $W/$ds-facts-p $W/$ds-facts-c "kgdiscover $ds journal facts"
  awk -F'\t' 'NR<=3 {printf "%s{\"op\":\"delete\",\"s\":\"%s\",\"r\":\"%s\",\"o\":\"%s\"}", sep, $1, $2, $3; sep=","}
              NR==1 {swap=sprintf("{\"op\":\"add\",\"s\":\"%s\",\"r\":\"%s\",\"o\":\"%s\"}", $3, $2, $1)}
              END   {printf ",%s", swap}' "$W/$ds-p/train.txt" \
    | { printf '{"seq":1,"source":"eq","ops":['; cat; printf ']}'; } > $W/$ds-batch.json
  for b in p c; do
    for base in p c; do
      B=$P; [ $b = c ] && B=$C
      $B/kgmutate -data $W/$ds-p -model $W/$ds-distmult-p.kge -baseline $W/$ds-base-$base.wal -batch $W/$ds-batch.json \
        -strategy graph_degree -top_n 100 -max_candidates 200 -seed 3 -limit 0 -out $W/$ds-mut-$b$base.tsv -sweep-out $W/$ds-sweep-$b$base.wal >/dev/null
    done
  done
  for x in pc cp cc; do same $W/$ds-mut-pp.tsv $W/$ds-mut-$x.tsv "kgmutate $ds TSV (build ${x:0:1}, baseline ${x:1:1}) vs parent build on parent baseline"; done
done
