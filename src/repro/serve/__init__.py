"""``repro.serve`` — the async multi-tenant HTTP slicer.

The serving layer the ROADMAP's "millions of users" north star needs:
one long-lived process mounts any number of persisted flowcube stores as
named *tenants* and answers slice / roll-up / drill-down / point queries,
flowgraph and exception reports, and cache statistics as a JSON API.

The pieces, bottom-up:

* :mod:`repro.serve.http` — a dependency-free asyncio HTTP/1.1 protocol
  layer; request handling runs on a thread pool so cold queries never
  stall the accept loop;
* :mod:`repro.serve.cuts` — the declarative cut syntax
  (``product:outerwear|brand:nike``) every query-carrying endpoint
  accepts, modeled on DataBrewery cubes' slicer;
* :mod:`repro.serve.tenant` — per-cube serving state: one long-lived
  query façade, its bitmap-catalog pool, a rendered-response byte cache,
  and store-version invalidation wiring;
* :mod:`repro.serve.app` — the routes: each cut-carrying request is
  parsed into a :class:`~repro.query.plan.Plan`, keyed, run, rendered.

:func:`create_app` / :func:`run` are the programmatic entry points; the
CLI front is ``flowcube-store serve``.
"""

from __future__ import annotations

import asyncio
from pathlib import Path as FsPath

from repro.serve.app import SlicerApp, cell_payload, slice_payload
from repro.serve.cuts import format_cut, parse_cut
from repro.serve.http import HttpServer, Request, Response, if_none_match
from repro.serve.runner import ServerThread
from repro.serve.tenant import CubeTenant

__all__ = [
    "CubeTenant",
    "HttpServer",
    "Request",
    "Response",
    "ServerThread",
    "SlicerApp",
    "cell_payload",
    "create_app",
    "format_cut",
    "if_none_match",
    "parse_cut",
    "run",
    "slice_payload",
]


def create_app(
    cubes: dict[str, FsPath | str],
    cache_size: int = 256,
    token: str | None = None,
    max_age: int | None = 60,
    admin_token: str | None = None,
) -> SlicerApp:
    """Mount the named stores and build the slicer application.

    ``max_age`` sets the ``Cache-Control: max-age`` seconds emitted next
    to the ETags on cacheable responses (``None`` omits the header).
    ``admin_token`` switches on the runtime ``mount``/``unmount`` admin
    routes (requests authenticate with an ``X-Admin-Token`` header).
    """
    tenants = [
        CubeTenant.mount(name, directory, cache_size=cache_size)
        for name, directory in cubes.items()
    ]
    return SlicerApp(
        tenants,
        token=token,
        max_age=max_age,
        admin_token=admin_token,
        cache_size=cache_size,
    )


async def run(
    app: SlicerApp,
    host: str = "127.0.0.1",
    port: int = 8642,
    workers: int = 8,
    ready=None,
) -> None:
    """Serve *app* forever; calls ``ready((host, port))`` once bound."""
    server = HttpServer(app, host=host, port=port, workers=workers)
    await server.start()
    if ready is not None:
        ready(server.address)
    try:
        await server.serve_forever()
    finally:
        await server.stop()
        for tenant in app.tenants.values():
            # close() flushes the query-cache counters and releases the
            # cube's mmaps and file handles (heap, index, string table).
            tenant.close()
