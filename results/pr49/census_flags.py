# Lists every flag defined in cmd/*/main.go with the ci.sh gates, the README /
# EXPERIMENTS rows and the tests that pass it, as a markdown table.
# Usage: python3 census_flags.py <repository root>
# Run on the parent of the retirements (c086802) it lists all 127 flags.
#
# Attribution (what PR 48's census_flags.py missed is marked *):
# - definitions are matched over the whole file, so a call whose arguments
#   span lines counts (*: kgdiscover's and kgmutate's -strategy);
# - ci.sh: a flag counts for the commands its logical line (backslash
#   continuations joined) runs, by binary name or through a shell function
#   whose body runs it; a bash array's flags count on every line that expands
#   the array (*: extra=(-kvsall)); comments are not gates;
# - README.md and EXPERIMENTS.md: a flag counts for the command, among those
#   defining the flag, whose name appears nearest to it in the same section
#   (*: -max-attempts at README.md:285, the kgserve flag table);
# - tests: a quoted "-flag" in the command's own tests, or in a root test
#   that names the command.
import glob, os, re, sys

os.chdir(sys.argv[1])
TYPES = r'(?:String|Int|Int64|Uint|Uint64|Bool|Float64|Duration)'
DEF = re.compile(r'\bfs\.(' + TYPES + r')(?:Var)?\(\s*(?:&[^,]+,\s*)?"([^"]+)",\s*(.+?),\s*(?:"|fmt\.)', re.S)
SETS = re.compile(r'flag\.NewFlagSet\("([^"]+)"')

flags = []  # (binary, flagset, name, type, default, file:line)
for main in sorted(glob.glob('cmd/*/main.go')):
    binary = main.split('/')[1]
    src = open(main).read()
    sets = [(m.start(), m.group(1)) for m in SETS.finditer(src)]
    for m in DEF.finditer(src):
        fset = [s for pos, s in sets if pos < m.start()][-1]
        line = src.count('\n', 0, m.start()) + 1
        flags.append((binary, fset, m.group(2), m.group(1), ' '.join(m.group(3).split()), f'{main}:{line}'))
print(f'{len(flags)} flags', file=sys.stderr)
binaries = sorted({f[0] for f in flags})
defines = {}
for b, _, name, *_ in flags:
    defines.setdefault(name, set()).add(b)


def flag_re(name):
    return re.compile(r'(?<![\w-])-{1,2}' + re.escape(name) + r'(?![\w-])')


def word_re(name):
    return re.compile(r'(?<![\w-])' + re.escape(name) + r'(?![\w-])')


hits = {}  # (binary, name) -> {'gates': set, 'docs': set, 'tests': set}


def hit(binary, name, kind, where):
    hits.setdefault((binary, name), {'gates': set(), 'docs': set(), 'tests': set()})[kind].add(where)


# ci.sh: logical lines, shell functions, arrays.
raw = open('scripts/ci.sh').read().split('\n')
logical = []  # (first line number, text)
i = 0
while i < len(raw):
    start, text = i + 1, raw[i]
    while text.endswith('\\') and i + 1 < len(raw):
        i += 1
        text = text[:-1] + ' ' + raw[i]
    logical.append((start, text))
    i += 1
aliases = {}  # shell function -> binaries its body runs
for n, (ln, text) in enumerate(logical):
    m = re.match(r'\s*(\w+)\(\)\s*\{', text)
    if m:
        body = []
        for _, t in logical[n + 1:]:
            if t.strip() == '}':
                break
            body.append(t)
        aliases[m.group(1)] = {b for b in binaries if any(word_re(b).search(t) for t in body)}
arrays = {}  # array name -> [(line, token)]
for ln, text in logical:
    for m in re.finditer(r'(\w+)=\(([^)]*)\)', text):
        arrays.setdefault(m.group(1), []).extend((ln, tok) for tok in m.group(2).split())
for ln, text in logical:
    if text.lstrip().startswith('#') or re.match(r'\s*\w+\(\)\s*\{', text):
        continue
    runs = {b for b in binaries if word_re(b).search(text)}
    for fn, bs in aliases.items():
        if word_re(fn).search(text):
            runs |= bs
    if not runs:
        continue
    words = [(ln, text)]
    for arr, toks in arrays.items():
        if '${' + arr + '[@]' in text:
            words += toks
    for where, t in words:
        for b, fset, name, *_ in flags:
            if b in runs and flag_re(name).search(t):
                hit(b, name, 'gates', f'scripts/ci.sh:{where}')

# README.md and EXPERIMENTS.md: nearest defining command in the section,
# unless another tool with flags of its own is at least as near in the same
# paragraph.
OTHERS = [re.compile(p) for p in (r'run\.sh', r'\bgo (test|build|vet)\b', r'\bkgbench\b', r'\bcurl\b')]
for doc in ('README.md', 'EXPERIMENTS.md'):
    L = open(doc).read().split('\n')
    heads = [n for n, l in enumerate(L) if l.startswith('#')] + [len(L)]
    for n, l in enumerate(L):
        for name, bs in defines.items():
            if not flag_re(name).search(l):
                continue
            lo = max([h for h in heads if h <= n], default=0)
            hi = min(h for h in heads if h > n)
            best, dist = set(), None
            for k in range(lo, hi):
                for b in bs:
                    if word_re(b).search(L[k]):
                        d = abs(k - n)
                        if dist is None or d < dist:
                            best, dist = {b}, d
                        elif d == dist:
                            best.add(b)
            plo, phi = n, n
            while plo > lo and L[plo - 1].strip():
                plo -= 1
            while phi + 1 < hi and L[phi + 1].strip():
                phi += 1
            if any(o.search(L[k]) for k in range(plo, phi + 1) for o in OTHERS
                   if dist is None or abs(k - n) <= dist):
                continue
            for b in best:
                hit(b, name, 'docs', f'{doc}:{n + 1}')

# Tests.
for b, fset, name, *_ in flags:
    quoted = re.compile(r'"-{1,2}' + re.escape(name) + r'(=[^"]*)?"')
    for tf in glob.glob(f'cmd/{b}/*_test.go'):
        if quoted.search(open(tf).read()):
            hit(b, name, 'tests', tf.split('/')[-1])
    for tf in glob.glob('*_test.go'):
        src = open(tf).read()
        if b in src and quoted.search(src):
            hit(b, name, 'tests', tf)


# The rule, for boolean and mode flags: a flag stays if a ci.sh gate, a README
# or EXPERIMENTS row, bench/ (through the option the flag sets) or a second
# program selects it; otherwise it goes with the code path only it reaches.
# Numeric parameters, paths, addresses, deployment limits, labels and
# verbosity switches drive a single path each and are out of scope.
MODE = {
    'kgconvert -force': 'retire: tests only. An existing -out is always refused',
    'kgdiscover -strategy': 'keep: ci.sh gates, README.md:279',
    'kgdiscover -rank_filtered': 'retire: tests only. Sets core.Options.RankFiltered, which stays (bench sweep_dense sets it), and fleet.SweepOptions.RankFiltered, which only this flag set and goes',
    'kgdiscover -cache_weights': 'retire: tests only. Sets core.Options.CacheWeights, which stays (bench sweep_stats sets it), and fleet.SweepOptions.CacheWeights, which only this flag set and goes',
    'kgdiscover -resume': 'keep: ci.sh gates (WAL-compat, crash-resume), README.md:93',
    'kgdiscover -fleet': 'keep: ci.sh gates (fleet), README.md:278; an address, also out of scope',
    'kgeval -split': 'keep: second programs select the valid split through the same eval.Evaluate (kgtrain -patience, kgtune)',
    'kgeval -filtered': 'keep: bench train_mix ranks filtered (eval.NewRanker over the filter graph); kgtrain and kgtune do too',
    'kgeval -both': 'keep: bench train_mix sets eval.Options.BothSides',
    'kgeval -classify': 'retire: nothing sets it. eval/classify.go goes with it; FitPlatt and corruptUnseen stay for /score',
    'kgeval -seed': 'retire: seeded the -classify negatives only',
    'kggen -preset': 'keep: ci.sh:256 (determinism smoke)',
    'kggen -stats': 'retire: tests only. kgstats -clustering prints the same two lines',
    'kgmutate -strategy': 'keep: ci.sh:336, EXPERIMENTS.md:2284',
    'kgmutate -rank_filtered': 'retire: tests only. core.Options.RankFiltered stays (bench), and jobs.OptionsHash keeps its key',
    'kgmutate -cache_weights': 'retire: nothing sets it. core.Options.CacheWeights stays (bench), and jobs.OptionsHash keeps its key',
    'kgserve -pprof': 'keep: README.md:462',
    'kgstats -clustering': 'keep: the README.md:94 row names the statistics only these switches print; repro fig5 and the clustering strategies run the same graphstats paths',
    'kgstats -histogram': 'keep: as -clustering; repro fig3 draws the same histogram',
    'kgstats -squares': 'keep: as -clustering; repro squares and cluster_squares run the same SquareClustering',
    'kgtrain -model': 'keep: ci.sh gates',
    'kgtrain -opt': 'keep: EXPERIMENTS.md:637 and :1384 train under SGD and Adagrad',
    'kgtrain -loss': 'keep: a second program, kgtune -losses, selects losses through the same train.LossByName',
    'kgtrain -bernoulli': 'retire: nothing sets it. train.Config.BernoulliNegatives, NegativeSampler.FitBernoulli and its map go; Corrupt keeps its rng.Float64() < 0.5 draw',
    'kgtrain -kvsall': 'keep: ci.sh:270 (extra=(-kvsall)); bench train_mix trains KvsAll',
    'kgtune -model': 'keep: the model the grid tunes; every value reaches kge.New, as kgtrain -model (gated) does',
    'kgtune -losses': 'keep: a list of loss names, each reaching train.LossByName as kgtrain -loss does',
    'repro -models': 'keep: a filter over the harness model list; each name runs the path the default list runs',
    'repro -strategies': 'keep: README.md:82, EXPERIMENTS.md:235',
}
OUT_OF_SCOPE = {
    'address': {'kgfleet coord -addr', 'kgfleet worker -coord', 'kgserve -addr'},
    'label': {'kgfleet worker -name'},
    'verbosity': {'kgtrain -quiet', 'kgtune -quiet', 'repro -quiet'},
    'numeric list': {'kgtune -dims', 'kgtune -lrs', 'kgtune -negs', 'kgtune -l2s'},
    'deployment limit': {'kgserve -max-discover', 'kgserve -cache-size', 'kgserve -request-timeout', 'kgserve -max-body',
                         'kgserve -shutdown-timeout', 'kgserve -job-workers', 'kgserve -max-jobs', 'kgserve -job-ttl',
                         'kgserve -max-mutation-ops', 'kgfleet coord -lease', 'kgfleet coord -poll',
                         'kgfleet coord -max-attempts', 'kgfleet worker -max-idle'},
}


def verdict(fset, name, typ):
    key = f'{fset} -{name}'
    if key in MODE:
        return MODE[key]
    for kind, keys in OUT_OF_SCOPE.items():
        if key in keys:
            return f'out of scope: {kind}'
    if typ == 'String':
        return 'out of scope: path'
    assert typ != 'Bool', key
    return 'out of scope: numeric'


def short(s, n=3):
    s = sorted(s, key=lambda x: (x.split(':')[0], int(x.split(':')[1]) if ':' in x else 0))
    return ', '.join(s[:n]) + (f' (+{len(s) - n})' if len(s) > n else '')


print('| command | flag | type | default | defined at | ci.sh gate | README / EXPERIMENTS | tests | verdict |')
print('|---|---|---|---|---|---|---|---|---|')
for b, fset, name, typ, dflt, at in flags:
    h = hits.get((b, name), {'gates': (), 'docs': (), 'tests': ()})
    dflt = dflt.replace('|', '\\|')
    print(f'| {fset} | -{name} | {typ} | `{dflt}` | {at} | {short(h["gates"])} | {short(h["docs"])} | {short(h["tests"])} | {verdict(fset, name, typ)} |')
