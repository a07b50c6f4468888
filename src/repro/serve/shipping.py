"""Shipping rank programs to already-forked pool workers.

The fork-per-run backend never serializes the rank program: children
inherit it through ``fork()``.  A warm pool breaks that trick — workers
fork *once*, and every later job must cross a pipe.  Plain :mod:`pickle`
refuses closures and lambdas (it pickles functions by reference), and the
rank programs the runtime builds are exactly that: nested generator
functions capturing array data, Forall objects whose kernels may be
lambdas, and app state.

:func:`dumps`/:func:`loads` extend pickle with a by-value fallback for
functions that cannot be found by import path:

* the code object travels via :mod:`marshal` (safe here: the pool worker
  is forked from the very interpreter that produced it),
* closure cells are unwrapped and their contents recursively shipped
  through the same pickler (so a closure may capture another closure),
* globals are **re-bound by module name** on the receiving side.  The
  worker was forked from the submitting process, so any module imported
  before the pool started is present; a program defined in a module
  imported *after* the fork raises a clear error instead of a silent
  NameError at call time.

Importable functions (``module.qualname`` resolves back to the same
object) still pickle by reference — cheap, and robust to code that was
already importable.  This is deliberately a minimal, same-interpreter
shipping layer, not a general cloudpickle: it never crosses interpreter
versions (marshal would break) and it does not ship module source.

A pool job ships as a :class:`Shipment`: the program pickled against the
mesh's resident record.  Objects that offer ``__resident__()``
(a :class:`~repro.arrays.darray.DistributedArray`: its content digest and
global contents) ship their contents once per mesh; the ranks keep them
in :data:`RANK_TABLE` and every later job carries only the key.  The
parent's record is the authority on what the ranks hold, chooses every
eviction, and dies with its mesh, so a rank never has to guess
(docs/dataplane.md, "Resident array contents").
"""

from __future__ import annotations

import io
import marshal
import pickle
import sys
import types
from collections import OrderedDict
from typing import Any, Dict, Hashable, NamedTuple, Optional, Tuple

from repro.errors import KaliError


class ShippingError(KaliError):
    """A program could not be shipped to (or rebuilt on) a pool worker."""


class ResidentMiss(ShippingError):
    """A job named resident contents its rank does not hold.  The parent's
    record says the rank holds them, so the two disagree: the job fails,
    which condemns the mesh, and the retry ships in full on a new one."""


#: Upper bound on the array bytes one mesh's ranks keep resident between
#: jobs (every rank holds every entry).  The parent evicts least recently
#: used entries the current job does not use to stay under it, and ships
#: contents that would not fit inline, uninstalled.
RESIDENT_MAX_BYTES = 64 << 20


#: sentinel for closure cells that are still empty (e.g. a not-yet-bound
#: recursive inner function); rebuilt as empty cells on the far side
_EMPTY_CELL = "__repro_empty_cell__"


def _lookup_importable(module: Optional[str], qualname: Optional[str]):
    """The object ``module.qualname`` resolves to, or None."""
    if not module or not qualname or "<locals>" in qualname:
        return None
    mod = sys.modules.get(module)
    if mod is None:
        return None
    obj = mod
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _make_skeleton(
    code_bytes: bytes,
    module: str,
    qualname: str,
    ncells: int,
):
    """Rebuild a shipped function with *empty* cells.  The skeleton exists
    (and is memoized by the unpickler) before any cell contents unpickle,
    so self-referential closures — a recursive inner function whose cell
    holds the function itself — resolve to the skeleton instead of
    recursing forever.  :func:`_fill_function` populates it afterwards."""
    try:
        code = marshal.loads(code_bytes)
    except (ValueError, EOFError, TypeError) as exc:  # pragma: no cover
        raise ShippingError(
            f"cannot rebuild shipped function {module}.{qualname}: {exc}"
        ) from exc
    mod = sys.modules.get(module)
    if mod is None:
        raise ShippingError(
            f"shipped function {qualname} needs module {module!r}, which is "
            "not imported in the pool worker — create the pool after "
            "importing the module that defines the program, or restart it"
        )
    closure = tuple(types.CellType() for _ in range(ncells))
    fn = types.FunctionType(code, mod.__dict__, code.co_name, None, closure)
    fn.__qualname__ = qualname
    return fn


def _fill_function(fn, state):
    """State setter applied after the skeleton is memoized."""
    cell_values, defaults, kwdefaults, fn_dict = state
    for cell, value in zip(fn.__closure__ or (), cell_values):
        if not (isinstance(value, str) and value == _EMPTY_CELL):
            cell.cell_contents = value
    fn.__defaults__ = defaults
    if kwdefaults:
        fn.__kwdefaults__ = dict(kwdefaults)
    if fn_dict:
        fn.__dict__.update(fn_dict)
    return fn


class _ShippingPickler(pickle.Pickler):
    """Pickler that falls back to by-value shipping for local functions."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)

    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType):
            if _lookup_importable(obj.__module__, obj.__qualname__) is obj:
                return NotImplemented  # plain by-reference pickling
            cells = []
            for cell in obj.__closure__ or ():
                try:
                    cells.append(cell.cell_contents)
                except ValueError:
                    cells.append(_EMPTY_CELL)
            ncells = len(obj.__closure__ or ())
            return (
                _make_skeleton,
                (
                    marshal.dumps(obj.__code__),
                    obj.__module__ or "builtins",
                    obj.__qualname__,
                    ncells,
                ),
                (
                    tuple(cells),
                    obj.__defaults__,
                    obj.__kwdefaults__,
                    dict(obj.__dict__) or None,
                ),
                None,
                None,
                _fill_function,
            )
        return NotImplemented


class _ResidentPickler(_ShippingPickler):
    """Pickles the contents of ``__resident__`` objects as a call that
    resolves their key in :data:`RANK_TABLE`, placed by ``shipment``."""

    def __init__(self, file, shipment: "Shipment"):
        super().__init__(file)
        self._shipment = shipment
        self._keys: Dict[int, Hashable] = {}   # id(contents) -> key

    def reducer_override(self, obj):
        key = self._keys.get(id(obj))
        if key is not None and self._shipment.place(key, obj):
            return _resident, (key,)
        resident = getattr(type(obj), "__resident__", None)
        if resident is not None:
            # Seen before its contents: the state pickles right after.
            digest, data = resident(obj)
            # The digest hashes bytes only; dtype and shape make it a key.
            self._keys[id(data)] = (digest, data.dtype.str, data.shape)
        return super().reducer_override(obj)


def _pickle(pickler_cls, obj: Any, *args) -> bytes:
    buf = io.BytesIO()
    try:
        pickler_cls(buf, *args).dump(obj)
    except (pickle.PicklingError, TypeError, ValueError, AttributeError) as exc:
        raise ShippingError(
            f"cannot ship object to pool worker: {exc!r} — pool jobs must "
            "close over picklable state (no open files, sockets, or pools)"
        ) from exc
    return buf.getvalue()


def dumps(obj: Any) -> bytes:
    """Serialize ``obj`` (closures and lambdas included) for a pool worker."""
    return _pickle(_ShippingPickler, obj)


def loads(data: bytes) -> Any:
    return pickle.loads(data)


# --- resident contents -------------------------------------------------------


class _Header(NamedTuple):
    """What a rank does to its table before it unpickles the program."""

    evict: tuple
    install: dict   # key -> contents


class Shipment:
    """One pool job on its way out: ``program`` pickled against
    ``record``, the parent's record of what one mesh's ranks hold
    (``{key: nbytes}``, least recently used first).  The record belongs
    to the mesh's pool and is replaced whenever the mesh is, so no key
    outlives its ranks.  :meth:`dumps` fills ``hits`` / ``installs`` /
    ``evicts`` (keys) and brings the record up to date."""

    def __init__(self, program: Any, record: "OrderedDict[Hashable, int]"):
        self.program = program
        self.record = record
        self.hits: set = set()
        self.installs: Dict[Hashable, Any] = {}
        self.evicts: Tuple[Hashable, ...] = ()
        self._used = 0

    def place(self, key: Hashable, data) -> bool:
        """Ship ``data`` by ``key``, installing it if the ranks lack it;
        False to pickle it inline because it would not fit."""
        if key in self.hits or key in self.installs:
            return True
        nbytes = data.nbytes
        if key in self.record:
            self.hits.add(key)
        elif self._used + nbytes <= RESIDENT_MAX_BYTES:
            self.installs[key] = data
        else:
            return False
        self._used += nbytes
        return True

    def dumps(self) -> bytes:
        program = _pickle(_ResidentPickler, self.program, self)
        record = self.record
        total = sum(record.values()) + sum(
            d.nbytes for d in self.installs.values())
        evicts = []
        for key, nbytes in record.items():
            if total <= RESIDENT_MAX_BYTES:
                break
            if key not in self.hits:
                evicts.append(key)
                total -= nbytes
        self.evicts = tuple(evicts)
        for key in evicts:
            del record[key]
        for key in self.hits:
            record.move_to_end(key)
        for key, data in self.installs.items():
            record[key] = data.nbytes
        header = pickle.dumps(_Header(self.evicts, self.installs),
                              protocol=pickle.HIGHEST_PROTOCOL)
        return header + program


#: This process's resident contents, ``{key: read-only ndarray}``.  Only
#: pool ranks fill it, only as job headers say, and a rank process lives
#: exactly as long as its mesh.
RANK_TABLE: Dict[Hashable, Any] = {}


def _miss(key) -> ResidentMiss:
    return ResidentMiss(f"job names resident contents {key[0][:12]}… "
                        "that this rank does not hold")


def _resident(key: Hashable):
    """Unpickling hook: the resident contents under ``key``."""
    try:
        return RANK_TABLE[key]
    except KeyError:
        raise _miss(key) from None


def _apply(header: _Header) -> None:
    for key in header.evict:
        if RANK_TABLE.pop(key, None) is None:
            raise _miss(key)
    for key, data in header.install.items():
        data.flags.writeable = False   # shared by every later job
        RANK_TABLE[key] = data


def dumps_via(obj: Any, plane, consumers) -> Tuple[Any, int]:
    """Serialize ``obj`` (a :class:`Shipment` ships against its record)
    and, when a shm data plane is available, hand the bytes to it as one
    out-of-band buffer: one shared block every consumer reads once it
    clears the threshold, so shipped schedules (rank programs closing
    over scattered operands) cross the control pipes without ``nranks``
    pickled copies.

    Returns ``(payload, shm_bytes)`` where ``shm_bytes`` is the
    serialized size if it went via shm, else 0."""
    payload = obj.dumps() if isinstance(obj, Shipment) else dumps(obj)
    if plane is None:
        return payload, 0
    wire = plane.dumps(pickle.PickleBuffer(payload), consumers)
    return wire, (0 if isinstance(wire, bytes) else wire.nbytes)


def loads_via(payload: Any, plane) -> Any:
    """Inverse of :func:`dumps_via` on the worker side: load the plane's
    payload (one copy out of the shared block), then unpickle the program.
    A shipment's header updates :data:`RANK_TABLE` before its program is
    rebuilt."""
    if plane is not None:
        payload = plane.loads(payload)
    elif not isinstance(payload, (bytes, bytearray)):
        raise ShippingError(
            "job payload came through a shm data plane but this worker "
            "has none"
        )
    stream = io.BytesIO(payload)
    head = pickle.load(stream)
    if type(head) is not _Header:
        return head
    _apply(head)
    return pickle.load(stream)
