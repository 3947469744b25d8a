#!/usr/bin/env python3
"""Profile of a sampler.so run: time per function, by `nm`.

    symbolise.py BINARY SAMPLES [--inclusive | --layers] [--under NAME] [--top N]

BINARY is the profiled executable (built with frame pointers; a release
build keeps its symbols unless stripped). Read a profile whole-process
and `--inclusive` first — every function ranked by the samples it is
anywhere on the stack of, once per sample however often it recurses —
which is the view that shows a layer whose cost is spread thinly over
many leaves. `--under NAME` then keeps only the samples with a frame —
the leaf included: a function's own time is under it — whose name
contains NAME (`run_until`: the simulation proper, without set-up).
`--layers` charges each sample to the innermost frame that names a
module of the workspace (`BinaryHeap::pop` under the event queue is
`simcore::event`'s; a `BTreeMap` descent under `Database::read` is
`statestore::db`'s) and prints the modules as shares. With neither view
each sample is charged to its leaf frame alone. A leaf in a shared
library is named from the dynamic symbols when it is inside an exported
function (malloc, free), else by its library — and, when the word on top
of the stack is a return address into BINARY, by that caller:
`[libc.so.6] < NamingRegistry::resolve` is the memcmp under `resolve`.
"""
import argparse
import bisect
import collections
import os
import re
import signal
import subprocess

# Piped into `head`, die of SIGPIPE as any filter does, not of a traceback.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

args = argparse.ArgumentParser()
args.add_argument("binary")
args.add_argument("samples")
args.add_argument("--inclusive", action="store_true")
args.add_argument("--layers", action="store_true")
args.add_argument("--under")
args.add_argument("--top", type=int, default=15)
args = args.parse_args()
binary = os.path.realpath(args.binary)

stacks, maps, bias = [], [], {}  # maps: (start, end, path); bias: path -> load bias
for line in open(args.samples):
    if line.startswith("# map "):
        span, _, _, _, _, path = line[6:].split(None, 5)
        start, end = (int(x, 16) for x in span.split("-"))
        maps.append((start, end, os.path.realpath(path.strip())))
    elif line.startswith("# obj "):
        fields = line.split()
        path = fields[3] if len(fields) > 3 else binary
        bias[os.path.realpath(path)] = int(fields[2], 16)
    elif not line.startswith("#"):
        stacks.append([int(pc, 16) for pc in line.split()])

tables = {}  # path -> (sorted symbol starts in the file, ends, names)


def table_of(path):
    if path not in tables:
        dynamic = [] if path == binary else ["-D"]
        nm = subprocess.run(["nm", "-C", "-S", "--defined-only", *dynamic, path],
                            capture_output=True, text=True).stdout
        symbols = []
        for line in nm.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in "tTwW":
                start = int(parts[0], 16)
                # Drop the `::h0123456789abcdef` hash rustc appends.
                name = re.sub(r"::h[0-9a-f]{16}$", "", parts[3])
                symbols.append((start, start + int(parts[1], 16), name))
        symbols.sort()
        tables[path] = tuple(zip(*symbols)) if symbols else ((), (), ())
    return tables[path]


def name_of(pc):
    """(name, whether `pc` is in BINARY); outside any known function the
    name is the mapped file's, in brackets."""
    for start, end, path in maps:
        if start <= pc < end and path in bias:
            starts, ends, names = table_of(path)
            at = bisect.bisect_right(starts, pc - bias[path]) - 1
            inside = at >= 0 and pc - bias[path] < ends[at]
            name = names[at] if inside else "[" + os.path.basename(path) + "]"
            return name, path == binary
    return "[unknown]", False


# `crate::module` of the workspace (its crates are listed here), wherever a
# frame's name has it first:
# `<cluster::sim::SimEvent as simcore::event::EventPayload<..>>::fire` is
# cluster::sim's code, `drop_in_place<statestore::db::Table>` is db's.
LAYER = re.compile(r"\b((?:simcore|statestore|components|urb_core|ebid|workload|faults"
                   r"|recovery|cluster|bench|urbmark|microreboot)::[a-z_]+)")

ranked, total = collections.Counter(), 0
for pc, top_of_stack, *callers in stacks:
    leaf, in_binary = name_of(pc)
    caller, caller_in_binary = name_of(top_of_stack)
    # A frameless library leaf: its caller is known only from that word.
    through_library = not in_binary and caller_in_binary
    frames = [leaf, *([caller] if through_library else []), *(name_of(c)[0] for c in callers)]
    if args.under and not any(args.under in name for name in frames):
        continue
    total += 1
    if args.inclusive:
        ranked.update(set(frames))
    elif args.layers:
        layers = (LAYER.search(name) for name in frames)
        ranked[next((found[1] for found in layers if found), "[outside the workspace]")] += 1
    else:
        ranked[leaf + " < " + caller if through_library else leaf] += 1
print(f"{total} samples" + (f" under {args.under}" if args.under else "")
      + f" of {len(stacks)}" + (", inclusive" if args.inclusive else "")
      + (", by layer" if args.layers else ""))
for name, count in ranked.most_common(args.top):
    print(f"{100 * count / total:5.1f} %  {count:6}  {name[:96]}")
