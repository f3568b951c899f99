#!/usr/bin/env python3
"""Turn a sampler trace into a table of the hottest symbols.

Run from anywhere:

    python3 tools/profile/symbolize.py SAMPLES EXE [--libraries]

SAMPLES is what tools/profile/sampler wrote; EXE is the executable the
samples are charged to, such as a release bcgc.exe or perfbench's
main.exe, and the very build that ran: a rebuild moves the symbols. Its
symbols come from `nm -n --defined-only EXE` (so EXE must not be
stripped), and its load address from the sampler's mmap lines for
EXE together with EXE's ELF program headers. A sample in another mapping
is charged to that mapping's file, and one in no mapping to [unknown].
OCaml names print as Module.function: camlHeapsim__Heap.touch_object_530
prints as Heapsim.Heap.touch_object. The table lists the TOP (40)
hottest. With --libraries it sums the samples by library instead
(Heapsim, Vmsim, ...; [C] for the OCaml runtime and other C code in
EXE).

The sampler does not record which process a sample came from, so a trace
should hold one image of EXE: one exec of it, and any processes it forks.
"""

import argparse
import bisect
import collections
import os
import re
import struct
import subprocess
import sys

PT_LOAD = 1
PAGE_MASK = ~0xFFF
TOP = 40


def load_segments(exe):
    """(file offset, virtual address) of each PT_LOAD of a 64-bit ELF."""
    with open(exe, "rb") as f:
        data = f.read(4096)
    if data[:4] != b"\x7fELF" or data[4] != 2:
        sys.exit("symbolize: %s is not a 64-bit ELF file" % exe)
    (phoff,) = struct.unpack_from("<Q", data, 0x20)
    phentsize, phnum = struct.unpack_from("<HH", data, 0x36)
    with open(exe, "rb") as f:
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        p_type, _flags, offset, vaddr = struct.unpack_from("<IIQQ", table, i * phentsize)
        if p_type == PT_LOAD:
            segments.append((offset & PAGE_MASK, vaddr & PAGE_MASK))
    return segments


def symbols(exe):
    """Sorted start addresses and names of EXE's code symbols."""
    out = subprocess.run(
        ["nm", "-n", "--defined-only", exe], capture_output=True, text=True, check=True
    ).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) != 3 or parts[1] not in "tTwW":
            continue
        name = parts[2]
        if name.endswith((".code_begin", ".code_end")):
            continue
        addrs.append(int(parts[0], 16))
        names.append(name)
    return addrs, names


def pretty(name):
    m = re.match(r"caml([A-Za-z0-9_]+)\.(.+)$", name)
    if not m:
        return name
    return m.group(1).replace("__", ".") + "." + re.sub(r"_\d+$", "", m.group(2))


def library(where):
    if where.startswith("["):
        return where
    return where.split(".")[0] if "." in where else "[C]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("samples")
    ap.add_argument("exe")
    ap.add_argument("--libraries", action="store_true")
    args = ap.parse_args()

    exe = os.path.realpath(args.exe)
    segments = load_segments(exe)
    addrs, names = symbols(exe)
    # (start, end, file, bias); bias is set for EXE's own mappings
    mappings = []
    ips = collections.Counter()
    with open(args.samples) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "ip":
                ips[int(rest, 16)] += 1
            elif kind == "mmap":
                addr, length, pgoff, path = rest.split(" ", 3)
                addr, length, pgoff = int(addr, 16), int(length, 16), int(pgoff, 16)
                bias = None
                if os.path.realpath(path) == exe:
                    for offset, vaddr in segments:
                        if offset == pgoff & PAGE_MASK:
                            bias = addr - vaddr
                mappings.append((addr, addr + length, path, bias))

    counts = collections.Counter()
    for ip, n in ips.items():
        where = "[unknown]"
        for start, end, path, bias in mappings:
            if start <= ip < end:
                if bias is None:
                    where = "[%s]" % os.path.basename(path)
                else:
                    i = bisect.bisect_right(addrs, ip - bias) - 1
                    where = pretty(names[i]) if i >= 0 else "[%s]" % os.path.basename(path)
                break
        counts[library(where) if args.libraries else where] += n

    total = sum(counts.values())
    if total == 0:
        sys.exit("symbolize: no samples in %s" % args.samples)
    print("%d samples" % total)
    for where, n in counts.most_common(TOP):
        print("%7d %5.1f%%  %s" % (n, 100.0 * n / total, where))


if __name__ == "__main__":
    main()
