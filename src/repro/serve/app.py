"""The slicer application: JSON routes over mounted flowcube tenants.

Route map (all responses JSON)::

    GET  /                              server identity + mounted cubes
    GET  /cubes                         tenant summaries
    GET  /cubes/{name}                  one cube: shape, δ/ε, build version
    GET  /cubes/{name}/cuboids          materialised cuboids (index only)
    GET|POST /cubes/{name}/slice        cells matching a cut
    POST /cubes/{name}/rollup           a cell's parent along one dimension
    POST /cubes/{name}/drilldown        a cell's children along one dimension
    POST /cubes/{name}/query            one cell (''derive'': planner support)
    GET  /cubes/{name}/flowgraph        flowgraph report for a cut
    GET  /cubes/{name}/exceptions       (ε, δ) exceptions across a cut
    POST /cubes/{name}/mount            admin: mount the store in "path"
    POST /cubes/{name}/unmount          admin: release the tenant's files
    GET  /stats                         per-tenant cache/derivation counters

The two admin routes exist only when the app was built with an
``admin_token`` (CLI: ``--admin-token``) and require it in an
``X-Admin-Token`` header — deliberately separate from the read-path
bearer token, so handing a client query access never hands it the
ability to detach a cube's files.

Constraints arrive as a *cut* string (``product:outerwear|brand:nike``,
see :mod:`repro.serve.cuts`) in the ``cut=`` query parameter or the
``"cut"`` body field; an explicit ``"dims"`` object merges over it.
``path_level`` selects a path-lattice index (default: most detailed),
``"measure": true`` includes each cell's full flowgraph payload, and
``"derive": true`` lets the roll-up planner answer non-materialised
coordinates.

The six cut-carrying routes share one lifecycle.  *Parse*: the merged
parameters become one :class:`~repro.query.plan.Plan`, the only place a
malformed request is refused (400).  *Key*: ``plan.key``, the build
version and the store's mutation counter make the ``ETag``, so a matching
``If-None-Match`` is a 304 before anything else; a warm key is answered
from the tenant's rendered-response cache (bytes out, zero query work).
*Run*: a cold one executes on the tenant's query façade — query cache,
bitmap index kernel, cell-file IO for matching cells only — where what
the cube does not hold surfaces as a 404.  *Render*: :data:`RENDER` has
one payload function per operation; a cell's measure is decoded only if
the payload renders it, so a default slice answers from the index fields
alone.  Each tenant request first ``stat``\\ s the cube's meta file, so a
write by another process is seen at once.  A rebuild or a compaction
invalidates every layer; after an append the cell cache drops only the
cells it changed, and cached ``slice`` / ``exceptions`` bytes whose cut
selects none of them stay warm
(:meth:`~repro.store.cube_store.CubeStore.maybe_reload`).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable

from repro import __version__
from repro.core.serialization import exceptions_to_dicts, flowgraph_to_dict
from repro.errors import (
    CubeError,
    FlowCubeError,
    QueryError,
    ServeError,
    StoreError,
)
from repro.query.plan import Plan
from repro.query.render import render_text
from repro.serve.cuts import format_cut
from repro.serve.http import Request, Response, encode_json, if_none_match
from repro.serve.tenant import CubeTenant

__all__ = ["SlicerApp", "cell_payload", "slice_payload"]


def _cell_payloads(tenant: CubeTenant, cells: Iterable, measure: bool) -> list:
    """*cells* as the API renders them (index fields, optional measure).

    Without *measure* only a cell's index fields are read, so stored
    cells are rendered undecoded; the path-level id is resolved once per
    distinct level, not per cell.
    """
    index_of = tenant.cube_store.path_lattice.index_of
    path_level = level_id = None
    payloads = []
    for cell in cells:
        if cell.path_level is not path_level:
            path_level = cell.path_level
            level_id = index_of(path_level)
        out: dict = {
            "key": list(cell.key),
            "item_level": list(cell.item_level.levels),
            "path_level": level_id,
            "n_paths": cell.n_paths,
            "redundant": cell.redundant,
        }
        if measure:
            out["flowgraph"] = flowgraph_to_dict(cell.flowgraph)
        payloads.append(out)
    return payloads


def cell_payload(tenant: CubeTenant, cell, measure: bool = False) -> dict:
    """One cell as the API renders it (index fields, optional measure)."""
    return _cell_payloads(tenant, (cell,), measure)[0]


def slice_payload(
    tenant: CubeTenant,
    dims: dict[str, str],
    path_level_id: int | None,
    cells: Iterable,
    measure: bool = False,
) -> dict:
    """The canonical slice response body.

    Kept as a free function so tests can rebuild the exact payload from
    independently computed cells and assert byte-equality against the
    server's response.
    """
    cells = _cell_payloads(tenant, cells, measure)
    return {
        "cube": tenant.name,
        "cut": format_cut(dims),
        "path_level": path_level_id,
        "n_cells": len(cells),
        "cells": cells,
    }


def _cell_report(tenant: CubeTenant, plan: Plan, cell) -> dict:
    """The ``/query`` body: the cell, and how it was derived if it was."""
    payload = {
        "cube": tenant.name,
        "cut": format_cut(plan.dims),
        "derived": not tenant.cube_store.has_cuboid(
            cell.item_level, cell.path_level
        ),
        "cell": cell_payload(tenant, cell, measure=True),
    }
    if payload["derived"] and (
        source := tenant.query.plan_for(cell.item_level, cell.path_level)
    ) is not None:
        payload["derivation"] = {
            "source": list(source.source.levels),
            "distance": source.distance,
            "source_cells": source.source_cells,
            "exact": source.exact,
        }
    return payload


def _exception_report(tenant: CubeTenant, plan: Plan, cells) -> dict:
    reports = [
        {
            "key": list(cell.key),
            "item_level": list(cell.item_level.levels),
            "exceptions": found,
        }
        for cell in cells
        if (found := exceptions_to_dicts(cell.flowgraph.exceptions))
    ]
    return {
        "cube": tenant.name,
        "cut": format_cut(plan.dims),
        "n_cells": len(reports),
        "cells": reports,
    }


#: Plan operation -> ``(tenant, plan, what plan.run returned) -> payload``.
RENDER = {
    "slice": lambda tenant, plan, cells: slice_payload(
        tenant, dict(plan.dims), plan.path_level, cells, plan.measure
    ),
    "cell": _cell_report,
    "flowgraph": lambda tenant, plan, graph: {
        "cube": tenant.name,
        "cut": format_cut(plan.dims),
        "n_paths": graph.n_paths,
        "flowgraph": flowgraph_to_dict(graph),
        "text": render_text(graph),
    },
    "exceptions": _exception_report,
    "rollup": lambda tenant, plan, parent: {
        "cube": tenant.name,
        "dimension": plan.dimension,
        "cell": cell_payload(tenant, parent, plan.measure),
    },
    "drilldown": lambda tenant, plan, children: {
        "cube": tenant.name,
        "dimension": plan.dimension,
        "n_cells": len(children),
        "cells": _cell_payloads(tenant, children, plan.measure),
    },
}

#: Route verb -> plan operation (``/query`` is the point lookup).
ROUTES = {op: op for op in RENDER if op != "cell"} | {"query": "cell"}


class SlicerApp:
    """Multi-tenant slicer over one or more mounted cubes.

    Args:
        tenants: The cubes to serve.
        token: Optional bearer token; when set, every request must carry
            ``Authorization: Bearer <token>`` (the auth hook — swap in a
            real authenticator by overriding :meth:`authorize`).
        max_age: ``Cache-Control: max-age`` seconds stamped (next to the
            ``ETag``) on every cacheable 200 and 304 — clients may reuse
            a response that long before revalidating.  ``None`` omits
            the header entirely.
        admin_token: Enables the runtime mount/unmount admin routes
            (``POST /cubes/{name}/mount`` / ``.../unmount``); requests
            must carry it in an ``X-Admin-Token`` header.  ``None``
            (the default) leaves the admin surface switched off.
        cache_size: Cell/query cache capacity for tenants mounted *at
            runtime* through the admin routes (tenants passed in were
            built with their own sizes already).
    """

    def __init__(
        self,
        tenants: Iterable[CubeTenant],
        token: str | None = None,
        max_age: int | None = 60,
        admin_token: str | None = None,
        cache_size: int = 256,
    ) -> None:
        self._tenants: dict[str, CubeTenant] = {}
        for tenant in tenants:
            if tenant.name in self._tenants:
                raise ServeError(f"duplicate tenant name {tenant.name!r}")
            self._tenants[tenant.name] = tenant
        if not self._tenants:
            raise ServeError("the slicer needs at least one cube to serve")
        self._token = token
        self._admin_token = admin_token
        self._cache_size = cache_size
        if max_age is not None and max_age < 0:
            raise ServeError(f"max_age must be >= 0, got {max_age}")
        self._max_age = max_age
        self._lock = threading.Lock()
        self.requests = 0
        self.started = time.time()

    @property
    def tenants(self) -> dict[str, CubeTenant]:
        return self._tenants

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Synchronous request handling (runs on the server's pool)."""
        with self._lock:
            self.requests += 1
        if not self.authorize(request):
            return Response.json({"error": "unauthorized"}, 401)
        try:
            return self._route(request)
        except (QueryError, CubeError) as exc:
            return Response.json({"error": str(exc)}, 404)
        except FlowCubeError as exc:
            return Response.json({"error": str(exc)}, 400)

    def authorize(self, request: Request) -> bool:
        """The auth hook: bearer-token check when a token is configured."""
        if self._token is None:
            return True
        return request.headers.get("authorization") == f"Bearer {self._token}"

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route(self, request: Request) -> Response:
        segments = [part for part in request.path.split("/") if part]
        if not segments:
            return self._info()
        if segments == ["stats"]:
            return self._stats()
        if segments[0] != "cubes":
            raise QueryError(f"no route for {request.path!r}")
        if len(segments) == 1:
            return Response.json(
                [tenant.describe() for tenant in self._tenants.values()]
            )
        # Admin routes dispatch before the tenant lookup: mount targets
        # a name that is *not* mounted yet.
        if len(segments) == 3 and segments[2] in ("mount", "unmount"):
            return self._admin(segments[1], segments[2], request)
        tenant = self._tenants.get(segments[1])
        if tenant is None:
            raise QueryError(f"no cube named {segments[1]!r} is mounted")
        tenant.refresh()
        if len(segments) == 2:
            return Response.json(tenant.describe())
        if len(segments) > 3:
            raise QueryError(f"no route for {request.path!r}")
        verb = segments[2]
        if verb == "cuboids":
            return self._cuboids(tenant)
        if verb not in ROUTES:
            raise QueryError(f"no route for {request.path!r}")
        post_only = verb in ("rollup", "drilldown", "query")
        allowed = ("POST",) if post_only else ("GET", "POST")
        if request.method not in allowed:
            return Response.json(
                {"error": "use " + " or ".join(allowed)}, 405
            )
        # Merged request parameters: query string under a JSON body.
        params: dict = dict(request.query)
        if request.method == "POST":
            params.update(request.json())
        return self._answer(tenant, Plan.parse(ROUTES[verb], params), request)

    # ------------------------------------------------------------------
    # admin: runtime mount / unmount
    # ------------------------------------------------------------------
    def _admin(self, name: str, verb: str, request: Request) -> Response:
        """``POST /cubes/{name}/mount`` and ``.../unmount``.

        Mounting opens the store named in the JSON body's ``"path"`` and
        starts serving it as *name*; unmounting closes every file handle
        and mmap the tenant holds (heap, index, string table), so the
        directory can be rebuilt or removed without restarting the
        server.  In-flight requests against an unmounting tenant may
        fail with a store error — the admin asked for its files back.
        """
        if self._admin_token is None:
            return Response.json(
                {"error": "admin routes are disabled (set an admin token)"},
                403,
            )
        if request.headers.get("x-admin-token") != self._admin_token:
            return Response.json({"error": "unauthorized"}, 401)
        if request.method != "POST":
            return Response.json({"error": "use POST"}, 405)
        if verb == "mount":
            params = request.json()
            path = params.get("path")
            if not path or not isinstance(path, str):
                raise ServeError('mount needs a "path" to the store')
            with self._lock:
                if name in self._tenants:
                    return Response.json(
                        {"error": f"cube {name!r} is already mounted"}, 409
                    )
            try:
                tenant = CubeTenant.mount(
                    name, path, cache_size=self._cache_size
                )
            except StoreError as exc:
                return Response.json({"error": str(exc)}, 400)
            with self._lock:
                if name in self._tenants:  # lost a mount race
                    tenant.close()
                    return Response.json(
                        {"error": f"cube {name!r} is already mounted"}, 409
                    )
                self._tenants[name] = tenant
            return Response.json(
                {"mounted": name, "cube": tenant.describe()}, 201
            )
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                return Response.json(
                    {"error": f"no cube named {name!r} is mounted"}, 404
                )
            if len(self._tenants) == 1:
                return Response.json(
                    {"error": "cannot unmount the last cube"}, 409
                )
            del self._tenants[name]
        tenant.close()
        return Response.json({"unmounted": name})

    # ------------------------------------------------------------------
    # server-level endpoints
    # ------------------------------------------------------------------
    def _info(self) -> Response:
        return Response.json(
            {
                "server": "flowcube-slicer",
                "version": __version__,
                "cubes": sorted(self._tenants),
            }
        )

    def _stats(self) -> Response:
        with self._lock:
            requests = self.requests
        return Response.json(
            {
                "server": {
                    "requests": requests,
                    "uptime_seconds": round(time.time() - self.started, 3),
                },
                "cubes": {
                    name: tenant.stats()
                    for name, tenant in sorted(self._tenants.items())
                },
            }
        )

    # ------------------------------------------------------------------
    # cube endpoints
    # ------------------------------------------------------------------
    def _cuboids(self, tenant: CubeTenant) -> Response:
        lattice = tenant.cube_store.path_lattice
        payload = []
        for cuboid in tenant.cube_store.cuboids:
            payload.append(
                {
                    "item_level": list(cuboid.item_level.levels),
                    "path_level": lattice.index_of(cuboid.path_level),
                    "n_cells": len(cuboid),
                }
            )
        payload.sort(key=lambda c: (c["path_level"], c["item_level"]))
        return Response.json({"cube": tenant.name, "cuboids": payload})

    def _answer(
        self, tenant: CubeTenant, plan: Plan, request: Request
    ) -> Response:
        """Answer *plan*: 304, cached bytes, or run and render it.

        Every cacheable answer carries an ``ETag`` derived from the
        cube's build version, the store's mutation counter, and the
        canonical request key, plus ``Cache-Control: max-age`` (when
        configured) so clients can reuse a response for a bounded time
        without a round trip.  A matching ``If-None-Match`` is answered
        ``304 Not Modified`` before the cache is even consulted — the
        validator alone proves the client's copy is current.  A body is
        served, and cached under the version pinned before the run, only
        if the store's mutation counter did not move while it was
        rendered; otherwise the plan runs again.
        """
        version = tenant.version  # pinned before any rendering
        key = plan.key
        etag = tenant.etag(key)
        headers = {"ETag": etag}
        if self._max_age is not None:
            headers["Cache-Control"] = f"max-age={self._max_age}"
        if if_none_match(request.headers.get("if-none-match"), etag):
            return Response(status=304, headers=headers)
        body = tenant.cached_response(key)
        while body is None:
            result = plan.run(tenant.query)
            body = encode_json(RENDER[plan.op](tenant, plan, result))
            if tenant.version == version:
                tenant.store_response(key, body, version=version)
            else:
                # A reload landed while the plan ran, so its cells may
                # come from two cubes: answer from the one committed now.
                version = tenant.version
                body = tenant.cached_response(key)
        return Response(body=body, headers=headers)
