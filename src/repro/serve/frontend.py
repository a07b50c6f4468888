"""Asyncio front end: many JSON-lines clients, one sharded fleet.

A thread per connection, blocked for the full wall time of every
``submit``, is fine for a smoke test and hopeless for a fleet.
:class:`AsyncFrontend` multiplexes every connection on one event loop:

* **submit** runs admission + routing inline (microseconds — it only
  touches the router and a queue lock) and then *awaits* the job's
  :class:`~repro.serve.queue.JobFuture` without holding a thread.  The
  bridge is ``add_done_callback`` → ``loop.call_soon_threadsafe``: the
  shard scheduler thread resolves the future, the loop wakes the one
  coroutine waiting on it.  A thousand in-flight jobs cost a thousand
  coroutines, not a thousand threads.
* **drain** genuinely blocks, so it is pushed to a worker thread via
  ``asyncio.to_thread`` — the loop keeps serving other clients while
  one connection waits for the fleet to go idle.
* everything else (``ping``, ``stat``, ``metrics``, ``scale``,
  ``autopilot``, ``stop``) is fast and handled inline via
  :meth:`JobServer.handle_request`.

The wire protocol: one JSON object per line in, one per
line out, ``{"ok": false, "shed": true, ...}`` for admission rejections,
``{"ok": true, "stopping": true}`` terminating the server.
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Dict, Optional

from repro.serve.queue import DEFAULT_TENANT, JobFuture, ShedError
from repro.serve.server import JobServer, UnknownJobKindError, _jsonable


class AsyncFrontend:
    """Serve a :class:`JobServer` fleet on a unix socket, one event loop."""

    def __init__(self, server: JobServer, socket_path: str):
        self.server = server
        self.socket_path = socket_path
        self._stopping: Optional[asyncio.Event] = None

    # --- future bridge ---------------------------------------------------

    async def _await_future(self, future: JobFuture,
                            timeout: Optional[float] = None) -> Dict:
        """Await a thread-resolved JobFuture without burning a thread."""
        loop = asyncio.get_running_loop()
        afut: asyncio.Future = loop.create_future()

        def resolve(f: JobFuture) -> None:
            if afut.cancelled():
                return
            try:
                afut.set_result(f.result(timeout=0))
            except BaseException as exc:  # noqa: BLE001 — forward verbatim
                afut.set_exception(exc)

        future.add_done_callback(
            lambda f: loop.call_soon_threadsafe(resolve, f))
        if timeout is None:
            return await afut
        return await asyncio.wait_for(afut, timeout)

    # --- request dispatch ------------------------------------------------

    async def _dispatch(self, req: Dict) -> Dict:
        cmd = req.get("cmd")
        if cmd == "submit":
            if "kind" not in req:
                return UnknownJobKindError(None).reply()
            try:
                future = self.server.submit(
                    req["kind"], req.get("spec"),
                    priority=int(req.get("priority", 0)),
                    tenant=req.get("tenant", DEFAULT_TENANT),
                )
            except UnknownJobKindError as exc:
                return exc.reply()
            except ShedError as shed:
                return {"ok": False, "shed": True, "error": str(shed),
                        **shed.details}
            if not req.get("wait", True):
                return {"ok": True, "queued": True}
            try:
                record = await self._await_future(
                    future, timeout=req.get("timeout"))
            except asyncio.TimeoutError:
                return {"ok": False,
                        "error": "TimeoutError: job did not complete in time"}
            return {"ok": bool(record.get("ok")), "job": record}
        if cmd == "drain":
            done = await asyncio.to_thread(
                self.server.drain, timeout=req.get("timeout"))
            return {"ok": True, "jobs_done": done}
        if cmd == "scale":
            # Retiring a busy shard waits out its in-flight job: off the
            # loop, so every other client keeps being served meanwhile.
            return await asyncio.to_thread(self.server.handle_request, req)
        return self.server.handle_request(req)

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                text = line.strip()
                if not text:
                    continue
                try:
                    response = await self._dispatch(json.loads(text))
                except Exception as exc:  # noqa: BLE001 — report, keep serving
                    response = {"ok": False,
                                "error": f"{type(exc).__name__}: {exc}"}
                writer.write((json.dumps(_jsonable(response)) + "\n")
                             .encode("utf-8"))
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    return
                if response.get("stopping"):
                    if self._stopping is not None:
                        self._stopping.set()
                    return
        except asyncio.CancelledError:
            return  # loop shutting down while this client idled
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    # --- lifecycle -------------------------------------------------------

    async def _main(self) -> None:
        self._stopping = asyncio.Event()
        self.server.start()
        try:
            os.unlink(self.socket_path)
        except FileNotFoundError:
            pass
        listener = await asyncio.start_unix_server(
            self._serve_client, path=self.socket_path)
        try:
            async with listener:
                await self._stopping.wait()
        finally:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            self.server.close()

    def run(self) -> None:
        """Serve until a ``stop`` request arrives.  Blocks the caller
        (the CLI's foreground process) in ``asyncio.run``."""
        asyncio.run(self._main())


def serve_async(server: JobServer, socket_path: str) -> None:
    """Run ``server`` behind the asyncio front end on ``socket_path``."""
    AsyncFrontend(server, socket_path).run()
