# Summarizes alternating parent/change benchmark pairs: per workload and
# end-to-end metric, each side's median and quartiles, the change's median
# against the parent's, and the failed operations.
# Usage: python3 bench_summary.py bench_pairs.jsonl
import json, statistics, sys

runs = [json.loads(l) for l in open(sys.argv[1])]
metrics = ['setup_s', 'wall_s', 'cpu_s', 'op_p50_ms', 'peak_rss_mb']


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method='inclusive')
    return q[0], statistics.median(xs), q[2]


for w in dict.fromkeys(r['workload'] for r in runs):
    side = {s: [r['result'] for r in runs if r['workload'] == w and r['side'] == s] for s in ('parent', 'change')}
    n = min(len(side['parent']), len(side['change']))
    failed = {s: sum(r['failed'] for r in side[s]) for s in side}
    print(f'{w}: {n} pairs, failed parent {failed["parent"]} change {failed["change"]}')
    for m in metrics:
        p = [r['metrics'][m]['value'] for r in side['parent']]
        c = [r['metrics'][m]['value'] for r in side['change']]
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
        print(f'  {m:12s} parent {pm:10.4f} [{pq1:.4f}, {pq3:.4f}]  change {cm:10.4f} [{cq1:.4f}, {cq3:.4f}]  {100 * (cm - pm) / pm:+6.1f} %')
