#!/usr/bin/env python3
"""Sampling profiler for a native executable, for hosts without `perf`.

    python3 bench/sample_profile.py [--interval-ms 0.7] [--top 40] -- CMD ARGS...

Starts CMD, attaches to it with PTRACE_SEIZE, and until it exits, every
interval interrupts it (PTRACE_INTERRUPT), reads its instruction pointer
(PTRACE_GETREGS) and lets it run on.  Each sample is mapped to a symbol
with `nm -n` on the file it falls in (the executable or a shared library,
placed by /proc/<pid>/maps, so position-independent executables work),
and the report lists the top symbols and the share of samples per module.
An OCaml symbol `camlCore__Path.switch_123` counts to module `Core__Path`,
the executable's C code (`caml_modify`, `caml_apply2`) to "(runtime)", and
a shared library's code to the library.

Only the main thread is sampled, which is all of a single-domain OCaml
program.  Needs the Python 3 standard library and `nm`, and permission to
ptrace the child (the default for one's own children).
"""

import argparse
import bisect
import collections
import ctypes
import os
import re
import signal
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
RIP = 16  # index of rip in x86-64 struct user_regs_struct

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(request, pid, addr=None, data=None):
    r = libc.ptrace(request, pid, addr, data)
    if r == -1:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))
    return r


class Symbols:
    """Sorted text symbols of one ELF file, by file-relative address."""

    def __init__(self, path):
        self.addrs, self.names = [], []
        try:
            out = subprocess.run(["nm", "-n", "--defined-only", path],
                                 capture_output=True, text=True).stdout
        except OSError:
            out = ""
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in "tTwW":
                self.addrs.append(int(parts[0], 16))
                self.names.append(parts[2])

    def lookup(self, addr):
        i = bisect.bisect_right(self.addrs, addr) - 1
        return self.names[i] if i >= 0 else None


def is_pie(path):
    with open(path, "rb") as f:
        header = f.read(18)
    return header[16] == 3  # e_type ET_DYN


def mappings(pid):
    """Executable mappings: (start, end, path, load base)."""
    first = {}
    maps = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            fields = line.split()
            if len(fields) < 6:
                continue
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            offset, path = int(fields[2], 16), fields[5]
            if not path.startswith("/"):
                continue
            first.setdefault(path, lo - offset)
            if "x" in fields[1]:
                maps.append((lo, hi, path))
    return [(lo, hi, path, first[path]) for lo, hi, path in maps]


OCAML = re.compile(r"^caml([A-Z][A-Za-z0-9_]*)\.")


def module_of(symbol, path):
    """An OCaml compilation unit, "(runtime)" for the executable's C code,
    or a shared library's file name."""
    if ".so" in os.path.basename(path):
        return os.path.basename(path)
    m = OCAML.match(symbol or "")
    return m.group(1) if m else "(runtime)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--interval-ms", type=float, default=0.7)
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command given")

    child = subprocess.Popen(cmd)
    pid = child.pid
    ptrace(PTRACE_SEIZE, pid)
    regs = (ctypes.c_ulonglong * 27)()
    rips = []
    maps = None
    while True:
        time.sleep(args.interval_ms / 1e3)
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except OSError:
            break
        _, status = os.waitpid(pid, 0)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            break
        sig = 0
        if os.WIFSTOPPED(status):
            if status >> 16 == PTRACE_EVENT_STOP:
                ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs))
                rips.append(regs[RIP])
                if maps is None or len(rips) % 512 == 0:
                    maps = mappings(pid)
            else:
                # a signal-delivery stop: pass the signal on
                sig = os.WSTOPSIG(status)
        try:
            ptrace(PTRACE_CONT, pid, None, sig)
        except OSError:
            break
    rc = child.wait()

    tables = {}
    by_symbol = collections.Counter()
    by_module = collections.Counter()
    for rip in rips:
        hit = next(((lo, path, base) for lo, hi, path, base in maps or []
                    if lo <= rip < hi), None)
        if hit is None:
            by_symbol["[unknown]"] += 1
            by_module["[unknown]"] += 1
            continue
        _, path, base = hit
        if path not in tables:
            tables[path] = (Symbols(path), is_pie(path) or ".so" in path)
        syms, relocated = tables[path]
        symbol = syms.lookup(rip - base if relocated else rip)
        by_symbol[symbol or os.path.basename(path)] += 1
        by_module[module_of(symbol, path)] += 1

    n = len(rips)
    print(f"{n} samples, every {args.interval_ms} ms; exit status {rc}")
    if n == 0:
        return
    print(f"\n{'share':>7}  symbol")
    for name, k in by_symbol.most_common(args.top):
        print(f"{100 * k / n:6.2f}%  {name}")
    print(f"\n{'share':>7}  module")
    for name, k in by_module.most_common(args.top):
        print(f"{100 * k / n:6.2f}%  {name}")


if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    main()
