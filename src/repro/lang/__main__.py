"""Command-line Kali runner: ``python -m repro.lang program.kali ...``.

Runs a Kali source file on a simulated machine and reports results::

    python -m repro.lang examples/shift.kali --nprocs 8 --machine NCUBE/7 \\
        --const n=64 --input a=init.npy --save-arrays out.npz --timing

Inputs are ``name=file.npy`` pairs (or ``name=file.npz:key``); consts are
``name=value`` with ints/floats auto-detected.  Program ``print`` output
goes to stdout; ``--timing`` adds the inspector/executor breakdown, and
``--emit`` pretty-prints the compiler's canonical view of the program
instead of running it.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.errors import KaliError
from repro.lang.interp import compile_kali
from repro.lang.parser import parse
from repro.lang.unparse import unparse
from repro.machine.cost import PRESETS


def _parse_const(text: str):
    name, _, value = text.partition("=")
    if not _:
        raise argparse.ArgumentTypeError(f"expected name=value, got {text!r}")
    for conv in (int, float):
        try:
            return name, conv(value)
        except ValueError:
            continue
    if value.lower() in ("true", "false"):
        return name, value.lower() == "true"
    raise argparse.ArgumentTypeError(f"cannot parse const value {value!r}")


def _parse_input(text: str):
    name, _, path = text.partition("=")
    if not _:
        raise argparse.ArgumentTypeError(f"expected name=file.npy, got {text!r}")
    if ".npz:" in path:
        file, _, key = path.partition(":")
        return name, np.load(file)[key]
    return name, np.load(path)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.lang",
        description="Run a Kali program on a simulated distributed-memory "
        "machine.",
    )
    ap.add_argument("source", help="Kali source file")
    ap.add_argument("--nprocs", "-p", type=int, default=4,
                    help="number of processors (default 4)")
    ap.add_argument("--machine", "-m", default="NCUBE/7",
                    choices=sorted(PRESETS),
                    help="machine cost model (default NCUBE/7)")
    ap.add_argument("--const", "-c", action="append", type=_parse_const,
                    default=[], metavar="NAME=VALUE",
                    help="supply/override a const declaration")
    ap.add_argument("--input", "-i", action="append", type=_parse_input,
                    default=[], metavar="NAME=FILE.npy",
                    help="initial contents for a declared array")
    ap.add_argument("--save-arrays", metavar="OUT.npz",
                    help="save final array contents to an .npz file")
    ap.add_argument("--timing", action="store_true",
                    help="print the inspector/executor breakdown")
    ap.add_argument("--no-cache", action="store_true",
                    help="disable schedule caching (re-inspect every forall)")
    ap.add_argument("--emit", action="store_true",
                    help="pretty-print the parsed program and exit")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        source = open(args.source).read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.emit:
            print(unparse(parse(source)), end="")
            return 0
        program = compile_kali(source)
        result = program.run(
            nprocs=args.nprocs,
            machine=PRESETS[args.machine],
            consts=dict(args.const),
            inputs=dict(args.input),
            cache_enabled=not args.no_cache,
        )
    except KaliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in result.output:
        print(line)
    if args.timing:
        t = result.timing
        print(
            f"[timing] machine={args.machine} procs={args.nprocs} "
            f"total={t.total_time:.6f}s executor={t.executor_time:.6f}s "
            f"inspector={t.inspector_time:.6f}s "
            f"(overhead {100 * t.inspector_overhead:.2f}%)",
            file=sys.stderr,
        )
        stats = t.cache_stats()
        print(
            f"[timing] schedule cache: {stats['hits']} hits, "
            f"{stats['misses']} misses, {stats['invalidations']} "
            "invalidations",
            file=sys.stderr,
        )
    if args.save_arrays:
        np.savez(args.save_arrays, **result.arrays)
        print(f"[arrays saved to {args.save_arrays}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
