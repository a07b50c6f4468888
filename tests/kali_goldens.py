"""Bit-identity goldens for every Kali program the test suite runs.

``tests/conftest.py`` wraps :meth:`CompiledKali.run` around every test.
A run is *pinned* when it is a simulator run with no disk tier and no
learned-layout store (those legitimately differ between a cold and a
warm call of the same program).  Its call key hashes the source text
and every run argument, input arrays by content; its outcome hashes the
final arrays, the scalars, the print output, the hex virtual seconds,
and the message, byte and counter totals.  A pinned run whose key is in
:data:`GOLDENS` must reproduce that outcome exactly, so a change to the
compiler or the runtime that moves any of them fails the test that made
the call, whichever test that is.

The table was recorded at the tree that still interpreted forall bodies
(the AST-walking kernel ``tests/kali_reference.py`` keeps).  Re-pin after
an *intended* change with ``PYTHONPATH=src python -m tests.kali_goldens``,
which runs the suite in record mode and prints a fresh table (keys that
two calls recorded with different outcomes are left out).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from typing import Callable, Dict, List, Optional

import numpy as np

#: outcomes recorded by the record mode; None means "check, don't record"
RECORDING: Optional[Dict[str, set]] = None

#: keys checked so far in this process (tests assert they were reached)
CHECKED: List[str] = []


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _array_parts(arrays: Dict[str, np.ndarray]) -> List:
    parts: List = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        parts += [name, arr.dtype.str, arr.shape, arr.tobytes()]
    return parts


def call_key(run: Callable, compiled, args, kwargs) -> Optional[str]:
    """The pin key of ``compiled.run(*args, **kwargs)``, or None when the
    run is not pinned (real processes, a disk tier, a layout store)."""
    bound = inspect.signature(run).bind(compiled, *args, **kwargs)
    bound.apply_defaults()
    call = dict(bound.arguments)
    call.pop("self")
    if (call["backend"] != "sim" or call["pool"] is not None
            or call["schedule_cache_dir"] is not None or call["tune"] is not None):
        return None
    inputs = {name: np.asarray(v) for name, v in (call.pop("inputs") or {}).items()}
    consts = sorted((call.pop("consts") or {}).items())
    rest = sorted((k, v) for k, v in call.items()
                  if k not in ("pool", "schedule_cache_dir", "tune"))
    return _digest(compiled.source, consts, rest, *_array_parts(inputs))


def outcome(result) -> str:
    engine = result.timing.engine
    counters: Dict[str, int] = {}
    for stats in engine.stats:
        for name, amount in stats.counters.items():
            counters[name] = counters.get(name, 0) + int(amount)
    return _digest(*_array_parts(result.arrays),
                   sorted(result.scalars.items()), list(result.output),
                   float(engine.makespan).hex(), int(engine.total_messages()),
                   int(engine.total_bytes()), sorted(counters.items()))


def checked(run: Callable) -> Callable:
    """``run`` held to :data:`GOLDENS` (or recorded, in record mode)."""

    @functools.wraps(run)
    def pinned_run(self, *args, **kwargs):
        key = call_key(run, self, args, kwargs)
        result = run(self, *args, **kwargs)
        if key is None:
            return result
        got = outcome(result)
        if RECORDING is not None:
            RECORDING.setdefault(key, set()).add(got)
        elif key not in GOLDENS:
            return result
        else:
            assert got == GOLDENS[key], (
                f"Kali run {key} no longer reproduces its golden outcome "
                f"({got} != {GOLDENS[key]}): arrays, scalars, output, "
                "virtual seconds or traffic changed")
        CHECKED.append(key)
        return result

    return pinned_run


def main() -> int:
    """Run the suite in record mode; print the table to paste below."""
    import sys

    import pytest

    # conftest imports this file as ``tests.kali_goldens``, not __main__
    from tests import kali_goldens

    recorded = kali_goldens.RECORDING = {}
    status = pytest.main(["-q", "-p", "no:cacheprovider", "tests", *sys.argv[1:]])
    stable = {k: next(iter(v)) for k, v in recorded.items() if len(v) == 1}
    print("GOLDENS = {")
    for key in sorted(stable):
        print(f'    "{key}": "{stable[key]}",')
    print("}")
    print(f"# {len(stable)} pinned, {len(recorded) - len(stable)} unstable",
          file=sys.stderr)
    return int(status)


GOLDENS: Dict[str, str] = {
    "0579f96fa1ee5a7d": "7eb82540bb68e92f",
    "1319063993f2d333": "2cae10ae592bb12c",
    "17918ec8ced22b2f": "c003a4d310b2c863",
    "1a445d765fbef40e": "111530e7372ec918",
    "1a4ddad38ef263d8": "ad96406ff2341406",
    "1aadee56b39306c9": "440e7cdef6c0dcc4",
    "1baaead12e35265a": "4f87346f041a531e",
    "1d3da84506d59910": "cc91e1478e22bcb9",
    "2926a52c12092f27": "565bb9c5858d1105",
    "2b1e3711d6eda788": "9ac52a6f4681bd3c",
    "30c82c3e19888502": "686b6c2eec6d14a5",
    "32a2b849bbc92e43": "7ebe83ab68a5bd22",
    "38e4f1a31b64e091": "427dce34dee00815",
    "3b997aa9207e9e3b": "4c3cdd5f797338d4",
    "3bfb96b397cee7ee": "cfe471f8e77ddcc4",
    "3d7344041ab2f9b1": "114d8e62bb2621e1",
    "3edc69f58d23dc74": "e47915d5397d0943",
    "4553e3b2aaca991c": "553c711e1e2ab596",
    "45f1ec4c233390d9": "9d612b3437dd98d7",
    "47d3e01eebf6b1ce": "0c62b6336623375a",
    "4db37f3b0a9444e2": "1c909920110a3ae5",
    "511bc8468745b079": "0c62b6336623375a",
    "53e12d5b7b9aea82": "2c679223a66b55d6",
    "551590bb987aee1c": "125c503215f935ef",
    "5f668f2518addb34": "ed8ecf50d838ee16",
    "65ff4296fd300a4b": "042276829b817f8a",
    "6afcb0241d28e39e": "ec3d39d80b093615",
    "6b75e5fcdb6fbb44": "191f73a55a65add3",
    "719dab77e8af154d": "bac5aa2f4f9b04b9",
    "7827a50e07432ec0": "88f22451239a3dab",
    "7abc91d5919e3bb6": "f226b15c5b264b67",
    "7b94a486d8de4da3": "ba8943aa7345777c",
    "7be13df950487a6e": "15b4c80284949f35",
    "7e7f00b065c4a498": "965e66a52af5fea3",
    "82da4e27db55aace": "8cb80b1d00ef08b8",
    "87725f907a689800": "e0f7f541f45696fd",
    "8919746d15179d2f": "9949b1470895a17c",
    "89f1f38b465851cb": "d1c0023fc6ec8089",
    "92253e2ff1568277": "7eb82540bb68e92f",
    "92899466e3a0a26e": "d144d84bb3f6c538",
    "96229f355db66260": "7ed17206265ae292",
    "96f76f7414db0f73": "a196f0af9c3fc2e6",
    "9b611f2bc4a4a7bf": "0a130793452bbf73",
    "9d0c399400b6a78c": "e19bb692932b621e",
    "a56416ace9f2a378": "e5dcbad7e5cf7d8f",
    "a59e02edc22e82df": "01318ddc12dc266b",
    "a9e75158e58d0340": "0e20c8b7bc8fcc74",
    "afca84f723c89f70": "78987f0a5542f396",
    "b32f48764765c9ec": "c3b3ca7f6d6a9206",
    "b33fb0022a6e0c2f": "5a7e815d760f87dd",
    "b94d774e3ed3842f": "0d5fd9666660bd35",
    "c06cafcf0c4fc849": "ebfd5e4b5deaf010",
    "c37520b85e77761f": "d62d792b5dac6a23",
    "c5c5129b49218dc9": "ace8980ee3d2cdd5",
    "c6edefff970faa39": "42a123280592fed7",
    "c882f27630196eb1": "f1a7f8fe92836221",
    "c8b64b7e21c0b00a": "68486fbbbfed1d02",
    "ca4ce67a1e0e10a7": "f33adf71528a80e2",
    "cd31218908c7fd70": "88c1d9dab7c340be",
    "d841c0ed2b5c5d11": "2609faaddaaa7307",
    "db60db763b72377c": "a130c96432c8f610",
    "e4c3b2c0b3046e5a": "5907828050f1a853",
    "ea0db3fb14ea4714": "d0ce4b82415b290a",
    "eb27ba912b3d11c9": "b3f4b50fdb1b36ab",
    "ebe8cf796790aa46": "9810868ef9218499",
    "fc128a643f1cf9c2": "3d89daf59796522c",
    "fc6616bb2e7932ea": "50b6a47bef95c63e",
}


if __name__ == "__main__":
    raise SystemExit(main())
