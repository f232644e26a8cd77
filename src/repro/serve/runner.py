"""Run the slicer on a background thread — embedding and tests.

The CLI serves on the main thread (``asyncio.run``); everything else —
the pytest suite, a notebook — wants a server it can start, talk to over
a real socket, and tear down.
:class:`ServerThread` wraps one event loop on one daemon thread, exposes
the bound address once the listener is up, and shuts the loop down
cleanly from the outside.
"""

from __future__ import annotations

import asyncio
import threading

from repro.serve.app import SlicerApp
from repro.serve.http import HttpServer

__all__ = ["ServerThread"]


class ServerThread:
    """One slicer server on its own event loop and daemon thread.

    Use as a context manager::

        with ServerThread(app) as server:
            host, port = server.address
            ...

    Args:
        app: The :class:`~repro.serve.app.SlicerApp` to serve.
        host: Interface to bind.
        port: Port to bind; the default ``0`` picks a free port.
        workers: Request-handler thread-pool size.
    """

    def __init__(
        self,
        app: SlicerApp,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 8,
    ) -> None:
        self.app = app
        self._server = HttpServer(app, host=host, port=port, workers=workers)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._serve())
        finally:
            loop.close()

    async def _serve(self) -> None:
        await self._server.start()
        self._ready.set()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self._server.stop()

    def start(self) -> "ServerThread":
        """Start the thread and block until the listener is bound."""
        self._thread = threading.Thread(
            target=self._run, name="flowcube-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("server did not come up within 10s")
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port)."""
        return self._server.address

    def stop(self) -> None:
        """Cancel the serve task, join the thread, flush tenant stats."""
        loop = self._loop
        if loop is not None and loop.is_running():
            for task in asyncio.all_tasks(loop):
                loop.call_soon_threadsafe(task.cancel)
        if self._thread is not None:
            self._thread.join(timeout=10)
        for tenant in self.app.tenants.values():
            tenant.flush_stats()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
