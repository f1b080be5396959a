# Lists every flag under cmd/ with the gates, doc rows and tests that pass it.
# Usage: python3 census_flags.py <repository root>
import re, glob, os, sys
repo = sys.argv[1]
os.chdir(repo)
decl = re.compile(r'(\w+)\.(String|Int|Int64|Uint|Uint64|Bool|Float64|Duration)\(\s*"([^"]+)",\s*(.+?),\s*"')
declvar = re.compile(r'(\w+)\.(StringVar|IntVar|Int64Var|BoolVar|Float64Var|DurationVar)\(\s*&[^,]+,\s*"([^"]+)",\s*(.+?),\s*"')
docs = ['scripts/ci.sh', 'README.md', 'EXPERIMENTS.md']
def lines(p):
    return open(p).read().split('\n')
flags = []
for main in sorted(glob.glob('cmd/*/main.go')):
    cmd = main.split('/')[1]
    src = open(main).read()
    sub = None
    for ln in src.split('\n'):
        m = re.search(r'flag\.NewFlagSet\("([^"]+)"', ln)
        if m: sub = m.group(1)
        for rx in (decl, declvar):
            m = rx.search(ln)
            if m:
                flags.append((cmd, sub or cmd, m.group(3), m.group(4).strip()))
print(len(flags), file=sys.stderr)
def hits(cmd, name):
    pat = re.compile(r'(?<![\w-])-{1,2}' + re.escape(name) + r'(?![\w-])')
    quoted = re.compile(r'"-{1,2}' + re.escape(name) + r'(=[^"]*)?"')
    out = {'tests': set(), 'gates': set(), 'docs': set()}
    for tf in glob.glob(f'cmd/{cmd}/*_test.go'):
        if any(quoted.search(l) for l in lines(tf)):
            out['tests'].add(tf.split('/')[-1])
    for tf in glob.glob('*_test.go'):
        L = lines(tf)
        if cmd in open(tf).read() and any(quoted.search(l) for l in L):
            out['tests'].add(tf)
    for d in docs:
        L = lines(d)
        for i, l in enumerate(L):
            if pat.search(l) and any(cmd in L[j] for j in range(max(0, i-4), i+1)):
                (out['gates'] if d.endswith('.sh') else out['docs']).add(f'{d}:{i+1}')
    return out
print('| command | flag | default | ci.sh gate | README / EXPERIMENTS | tests |')
print('|---|---|---|---|---|---|')
for cmd, sub, name, dflt in flags:
    h = hits(cmd, name)
    def short(s, n=3):
        s = sorted(s, key=lambda x: (x.split(':')[0], int(x.split(':')[1]) if ':' in x else 0))
        return ', '.join(s[:n]) + (f' (+{len(s)-n})' if len(s) > n else '')
    dflt = dflt.replace('|', '\\|')
    print(f'| {sub} | -{name} | `{dflt}` | {short(h["gates"])} | {short(h["docs"])} | {short(h["tests"])} |')
