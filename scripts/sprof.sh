#!/usr/bin/env sh
# Sampling profile of one `harness` command: self and inclusive time per
# function.
#
#   scripts/sprof.sh --jobs 1 fig11 1.0
#   scripts/sprof.sh --jobs 1 fig8-10 0.75
#
# A small LD_PRELOAD shim arms ITIMER_PROF at 1 kHz of process CPU time
# (a kernel with a coarser tick delivers fewer; shares are unaffected);
# each SIGPROF records a glibc backtrace() into a static buffer, and the
# stacks plus /proc/self/maps are written out when the process exits.
# Addresses are symbolized with `addr2line -f -C -i` against a release
# build with line tables, in its own target directory (target/sprof), so
# the normal release build is untouched. Inlined frames count as their
# own functions. Needs gcc, addr2line and python3.
set -eu

cd "$(dirname "$0")/.."
[ $# -gt 0 ] || { echo "usage: scripts/sprof.sh <harness args>..." >&2; exit 2; }

target=target/sprof
work="$target/sprof-run"
mkdir -p "$work"
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo build --release -q -p fsencr-bench --bin harness --target-dir "$target"
bin="$target/release/harness"

cat >"$work/shim.c" <<'EOF'
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>

#define DEPTH 64
#define MAX_SAMPLES 200000
/* Per sample: frame count, then the frames. */
static void *samples[MAX_SAMPLES][DEPTH + 1];
static volatile long taken;

static void on_prof(int sig) {
    (void)sig;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i][0] = (void *)(long)backtrace(&samples[i][1], DEPTH);
}

__attribute__((constructor)) static void sprof_start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder outside the handler */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tv = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tv, NULL);
}

__attribute__((destructor)) static void sprof_stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(SPROF_OUT, "w");
    if (!out)
        return;
    long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (long i = 0; i < n; i++) {
        long depth = (long)samples[i][0];
        fprintf(out, "S");
        for (long f = 1; f <= depth; f++)
            fprintf(out, " %lx", (unsigned long)samples[i][f]);
        fprintf(out, "\n");
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps && fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    if (maps)
        fclose(maps);
    fclose(out);
}
EOF
# The shim writes its stacks to a path fixed when it is compiled.
gcc -O2 -shared -fPIC -DSPROF_OUT="\"$PWD/$work/stacks.txt\"" -o "$work/shim.so" "$work/shim.c"

rm -f "$work/stacks.txt"
LD_PRELOAD="$PWD/$work/shim.so" "$bin" "$@" >/dev/null

python3 - "$work/stacks.txt" "$PWD/$bin" <<'EOF'
import collections, subprocess, sys

path, binary = sys.argv[1], sys.argv[2]
# Rows per table.
top = 25
stacks, base = [], None
for line in open(path):
    if line.startswith("S"):
        stacks.append([int(a, 16) for a in line.split()[1:]])
    elif line.startswith("M"):
        f = line.split()
        # The lowest mapping of the binary (offset 0) is its load base.
        if len(f) >= 7 and f[6] == binary and int(f[3], 16) == 0 and base is None:
            base = int(f[1].split("-")[0], 16)
if base is None:
    sys.exit("sprof: the binary's load base is not in the maps dump")

# Frames 0 and 1 are the signal handler and the sigreturn trampoline;
# frame 2 is the interrupted instruction, later ones are return
# addresses (minus one to land inside the call).
keyed = [[a - base - (1 if i else 0) for i, a in enumerate(s[2:])] for s in stacks]
addrs = sorted({a for s in keyed for a in s if 0 <= a < 1 << 40})
names = {}
for i in range(0, len(addrs), 2000):
    chunk = addrs[i:i + 2000]
    out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", binary]
                         + [hex(a) for a in chunk],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    # Per address: the address line, then (function, file:line) pairs,
    # innermost inlined function first.
    cur, pos = None, 0
    for l in out:
        if l.startswith("0x"):
            cur, pos = int(l, 16), 0
            names[cur] = []
            continue
        if pos % 2 == 0:
            names[cur].append(l)
        pos += 1

def funcs(a):
    # Innermost (inlined) function first.
    return names.get(a) or ["[outside the binary]"]

self_t, incl = collections.Counter(), collections.Counter()
for s in keyed:
    if not s:
        continue
    self_t[funcs(s[0])[0]] += 1
    incl.update({f for a in s for f in names.get(a, [])})
total = len(keyed)
print(f"sprof: {total} samples of CPU time")
# Frames on every stack (main, the runtime, the pool) say nothing.
incl = collections.Counter({f: n for f, n in incl.items() if n < total})
for title, table in (("self", self_t), ("inclusive", incl)):
    print(f"\n{title:>9}  function")
    for name, n in table.most_common(top):
        print(f"{100 * n / total:8.1f}%  {name[:150]}")
EOF
