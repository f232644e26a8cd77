"""The HTTP slicer: routing, parity, tenancy, and concurrency.

The load-bearing assertions:

* every endpoint answers over the app surface AND a real socket, and a
  server slice response is byte-equivalent to the payload rebuilt from
  the seed ``"scan"`` kernel's cells (the serving parity contract);
* ``"derive": true`` answers non-materialised coordinates through the
  roll-up planner and reports the plan;
* the response/query/catalog cache layers invalidate on store mutation —
  hammered by concurrent reader threads interleaved with
  ``put_cuboid``/``flush`` writes, no stale or torn answer is ever served;
* ``merge_query_stats`` is atomic under concurrent writers: no lost
  increments, never partial JSON;
* the ``/cubes/{name}`` payload carries the persisted build version, and
  an external rebuild is noticed via ``maybe_reload``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from itertools import product as iproduct

import pytest

from repro.core.path import PathRecord
from repro.core.lattice import ItemLevel
from repro.errors import ServeError, StoreError
from repro.perf.query_kernel import load_query_stats, merge_query_stats
from repro.query.api import FlowCubeQuery
from repro.serve import (
    CubeTenant,
    Request,
    ServerThread,
    SlicerApp,
    create_app,
    format_cut,
    parse_cut,
    slice_payload,
)
from repro.serve.http import encode_json
from repro.store import PartitionedPathStore, append_records, build_cube
from repro.store.cli import _parse_cube_mounts
from repro.synth import GeneratorConfig, generate_path_database
from tests.conftest import item_cell

CONFIG = GeneratorConfig(
    n_paths=120,
    n_dims=2,
    dim_fanouts=(2, 3),
    n_location_groups=3,
    locations_per_group=2,
    n_sequences=8,
    max_path_length=4,
    max_duration=3,
    seed=3,
)
MIN_SUPPORT = 0.1


@pytest.fixture(scope="module")
def database():
    return generate_path_database(CONFIG)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory, database):
    directory = tmp_path_factory.mktemp("serve") / "wh"
    store = PartitionedPathStore.init(directory, database.schema)
    store.ingest(database)
    build_cube(store, min_support=MIN_SUPPORT, into=store.cube_store())
    return directory


@pytest.fixture()
def tenant(store_dir):
    return CubeTenant.mount("wh", store_dir)


@pytest.fixture()
def app(tenant):
    return SlicerApp([tenant])


def get(app, path, query=None):
    return app.handle(
        Request(method="GET", path=path, query=query or {}, headers={})
    )


def post(app, path, body):
    return app.handle(
        Request(
            method="POST",
            path=path,
            query={},
            headers={},
            body=json.dumps(body).encode(),
        )
    )


def body_of(response):
    return json.loads(ok_body(response))


def ok_body(response) -> bytes:
    assert response.status == 200, response.body
    return response.body


def scan_slice_bytes(tenant, dims, path_level=None, measure=False):
    """The parity oracle: the slice payload a fresh scan kernel renders."""
    scan = FlowCubeQuery(tenant.cube_store, kernel="scan")
    cells = scan.slice_cells(path_level, **dims)
    lattice = tenant.cube_store.path_lattice
    level_id = None if path_level is None else lattice.index_of(path_level)
    return encode_json(slice_payload(tenant, dims, level_id, cells, measure))


# ----------------------------------------------------------------------
# cut syntax
# ----------------------------------------------------------------------

def test_parse_cut():
    assert parse_cut("") == {}
    assert parse_cut("d0:d0_0") == {"d0": "d0_0"}
    assert parse_cut("d0:d0_0|d1:d1_2_1") == {"d0": "d0_0", "d1": "d1_2_1"}
    assert parse_cut(" d0 : d0_0 ") == {"d0": "d0_0"}


@pytest.mark.parametrize("bad", ["d0", "d0:", ":v", "d0:a|d0:b", "|"])
def test_parse_cut_rejects_malformed(bad):
    with pytest.raises(ServeError):
        parse_cut(bad)


def test_format_cut_roundtrip():
    dims = {"d1": "d1_2", "d0": "d0_0"}
    assert parse_cut(format_cut(dims)) == dims
    assert format_cut(dims) == "d0:d0_0|d1:d1_2"


def test_parse_cube_mounts():
    assert _parse_cube_mounts(["wh=/tmp/a", "/data/retail"]) == {
        "wh": "/tmp/a",
        "retail": "/data/retail",
    }
    with pytest.raises(StoreError):
        _parse_cube_mounts(["a=x", "a=y"])
    with pytest.raises(StoreError):
        _parse_cube_mounts(["=x"])


# ----------------------------------------------------------------------
# routing and tenancy
# ----------------------------------------------------------------------

def test_info_and_cube_listing(app, tenant):
    info = body_of(get(app, "/"))
    assert info["server"] == "flowcube-slicer"
    assert info["cubes"] == ["wh"]
    cubes = body_of(get(app, "/cubes"))
    assert [c["name"] for c in cubes] == ["wh"]
    detail = body_of(get(app, "/cubes/wh"))
    assert detail["cells"] == tenant.cube_store.n_cells()
    assert detail["min_support"] == MIN_SUPPORT
    # Satellite: the build version comes from the persisted BuildStats.
    assert detail["version"] == tenant.cube_store.build_stats["version"]
    assert detail["build_stats"]["built_at"]


def test_cuboids_listing_matches_index(app, tenant):
    payload = body_of(get(app, "/cubes/wh/cuboids"))
    listed = {
        (tuple(c["item_level"]), c["path_level"]): c["n_cells"]
        for c in payload["cuboids"]
    }
    lattice = tenant.cube_store.path_lattice
    expected = {
        (
            tuple(cuboid.item_level.levels),
            lattice.index_of(cuboid.path_level),
        ): len(cuboid)
        for cuboid in tenant.cube_store.cuboids
    }
    assert listed == expected


def test_unknown_routes_and_methods(app):
    assert get(app, "/nope").status == 404
    assert get(app, "/cubes/ghost").status == 404
    assert get(app, "/cubes/wh/frobnicate").status == 404
    assert get(app, "/cubes/wh/rollup").status == 405
    assert post(app, "/cubes/wh/slice", {"cut": "d0"}).status == 400
    assert get(app, "/cubes/wh/slice", {"cut": "d9:x"}).status == 400


def test_auth_hook(tenant):
    app = SlicerApp([tenant], token="sesame")
    assert get(app, "/cubes").status == 401
    request = Request(
        method="GET",
        path="/cubes",
        query={},
        headers={"authorization": "Bearer sesame"},
    )
    assert app.handle(request).status == 200


def test_duplicate_tenant_rejected(store_dir):
    with pytest.raises(ServeError):
        SlicerApp(
            [
                CubeTenant.mount("wh", store_dir),
                CubeTenant.mount("wh", store_dir),
            ]
        )


# ----------------------------------------------------------------------
# slice parity: server bytes == scan-kernel payload
# ----------------------------------------------------------------------

@pytest.mark.parametrize("measure", [False, True])
def test_slice_byte_parity_with_scan_kernel(app, tenant, database, measure):
    h0 = database.schema.dimensions[0]
    wanted = sorted(h0.concepts_at_level(1))[0]
    response = post(
        app, "/cubes/wh/slice", {"cut": f"d0:{wanted}", "measure": measure}
    )
    assert response.status == 200
    assert response.body == scan_slice_bytes(
        tenant, {"d0": wanted}, measure=measure
    )


def test_slice_get_equals_post(app):
    via_get = get(app, "/cubes/wh/slice", {"cut": "d0:d0_0"})
    via_post = post(app, "/cubes/wh/slice", {"cut": "d0:d0_0"})
    assert via_get.status == via_post.status == 200
    assert via_get.body == via_post.body


def test_slice_response_cache_hits(app, tenant):
    post(app, "/cubes/wh/slice", {"cut": "d0:d0_0"})
    before = tenant.stats()["response_cache"]["hits"]
    post(app, "/cubes/wh/slice", {"cut": "d0:d0_0"})
    assert tenant.stats()["response_cache"]["hits"] == before + 1


def test_catalog_pool_shared_between_facades(app, tenant):
    post(app, "/cubes/wh/slice", {"cut": "d0:d0_0"})
    stats = tenant.catalogs.stats()
    assert stats["builds"] >= 1
    # A second façade handed the tenant's pool reuses it: no new catalog
    # builds for the same cuboids at the same version.
    other = FlowCubeQuery(tenant.cube_store, catalogs=tenant.catalogs)
    other.slice_cells(None, d0="d0_0")
    assert tenant.catalogs.stats()["builds"] == stats["builds"]
    assert tenant.catalogs.stats()["hits"] > stats["hits"]


# ----------------------------------------------------------------------
# conditional requests: ETag / If-None-Match
# ----------------------------------------------------------------------

def test_etag_round_trip(app):
    first = get(app, "/cubes/wh/slice", {"cut": "d0:d0_0"})
    assert first.status == 200
    etag = first.headers["ETag"]
    assert etag.startswith('"') and etag.endswith('"')
    revalidated = app.handle(
        Request(
            method="GET",
            path="/cubes/wh/slice",
            query={"cut": "d0:d0_0"},
            headers={"if-none-match": etag},
        )
    )
    assert revalidated.status == 304
    assert revalidated.body == b""
    assert revalidated.headers["ETag"] == etag


def test_etag_mismatch_serves_body(app):
    first = get(app, "/cubes/wh/slice", {"cut": "d0:d0_0"})
    stale = app.handle(
        Request(
            method="GET",
            path="/cubes/wh/slice",
            query={"cut": "d0:d0_0"},
            headers={"if-none-match": '"deadbeef"'},
        )
    )
    assert stale.status == 200
    assert stale.body == first.body


def test_etag_star_and_list_match(app):
    etag = get(app, "/cubes/wh/slice", {"cut": "d0:d0_0"}).headers["ETag"]
    for header in ("*", f'"other", {etag}', f"W/{etag}"):
        response = app.handle(
            Request(
                method="GET",
                path="/cubes/wh/slice",
                query={"cut": "d0:d0_0"},
                headers={"if-none-match": header},
            )
        )
        assert response.status == 304, header


def test_etag_varies_by_request_and_mutation(app, tenant):
    a = get(app, "/cubes/wh/slice", {"cut": "d0:d0_0"}).headers["ETag"]
    b = get(app, "/cubes/wh/slice", {"cut": "d0:d0_1"}).headers["ETag"]
    assert a != b  # different canonical keys
    tenant.cube_store._bump_version()
    after = get(app, "/cubes/wh/slice", {"cut": "d0:d0_0"}).headers["ETag"]
    assert after != a  # store mutation invalidates the validator


def test_etag_on_post_query(app):
    response = post(app, "/cubes/wh/query", {"cut": "d0:d0_0"})
    assert response.status == 200
    assert "ETag" in response.headers


def test_cache_control_rides_along_with_etag(app):
    first = get(app, "/cubes/wh/slice", {"cut": "d0:d0_0"})
    assert first.status == 200
    assert first.headers["Cache-Control"] == "max-age=60"
    revalidated = app.handle(
        Request(
            method="GET",
            path="/cubes/wh/slice",
            query={"cut": "d0:d0_0"},
            headers={"if-none-match": first.headers["ETag"]},
        )
    )
    # The 304 refreshes the client's freshness lifetime too.
    assert revalidated.status == 304
    assert revalidated.headers["Cache-Control"] == "max-age=60"


def test_cache_control_max_age_configurable_and_omittable(tenant):
    custom = SlicerApp([tenant], max_age=5)
    response = custom.handle(
        Request(
            method="GET",
            path="/cubes/wh/slice",
            query={"cut": "d0:d0_0"},
            headers={},
        )
    )
    assert response.headers["Cache-Control"] == "max-age=5"
    bare = SlicerApp([tenant], max_age=None)
    response = bare.handle(
        Request(
            method="GET",
            path="/cubes/wh/slice",
            query={"cut": "d0:d0_0"},
            headers={},
        )
    )
    assert response.status == 200
    assert "Cache-Control" not in response.headers
    with pytest.raises(ServeError):
        SlicerApp([tenant], max_age=-1)


# ----------------------------------------------------------------------
# navigation and derivation endpoints
# ----------------------------------------------------------------------

def test_rollup_and_drilldown(app, tenant, database):
    h0 = database.schema.dimensions[0]
    # Anchor on a materialised leaf-level cell, so neither direction can
    # run into iceberg pruning surprises.
    level = FlowCubeQuery(tenant.cube_store).default_path_level()
    leaves = tenant.cube_store.cuboid(ItemLevel((h0.depth, 0)), level)
    child = sorted(key[0] for key in leaves.keys)[0]
    parent = h0.ancestor_at_level(child, 1)
    rolled = body_of(
        post(
            app, "/cubes/wh/rollup", {"cut": f"d0:{child}", "dimension": "d0"}
        )
    )
    assert rolled["cell"]["key"][0] == parent
    drilled = body_of(
        post(
            app,
            "/cubes/wh/drilldown",
            {"cut": f"d0:{parent}", "dimension": "d0"},
        )
    )
    drilled_keys = [cell["key"][0] for cell in drilled["cells"]]
    assert child in drilled_keys
    assert set(drilled_keys) <= set(h0.children(parent))


def test_query_endpoint_measure(app):
    payload = body_of(post(app, "/cubes/wh/query", {"cut": "d0:d0_0"}))
    assert payload["derived"] is False
    assert payload["cell"]["key"] == ["d0_0", "*"]
    assert (
        payload["cell"]["flowgraph"]["n_paths"] == payload["cell"]["n_paths"]
    )


def test_query_derives_non_materialised(tmp_path, database):
    directory = tmp_path / "partial"
    store = PartitionedPathStore.init(directory, database.schema)
    store.ingest(database)
    # Materialise only the base item level: every coarser coordinate must
    # go through the roll-up planner on the read path.
    base = ItemLevel([h.depth for h in database.schema.dimensions])
    build_cube(
        store,
        min_support=MIN_SUPPORT,
        into=store.cube_store(),
        item_levels=[base],
        compute_exceptions=False,
    )
    app = create_app({"partial": directory})
    missing = post(app, "/cubes/partial/query", {"cut": "d0:d0_0"})
    assert missing.status == 404
    derived = body_of(
        post(app, "/cubes/partial/query", {"cut": "d0:d0_0", "derive": True})
    )
    assert derived["derived"] is True
    assert derived["cell"]["key"] == ["d0_0", "*"]
    assert derived["derivation"]["source"] == list(base.levels)
    assert derived["derivation"]["distance"] >= 1
    stats = body_of(get(app, "/stats"))
    # One façade, one query cache: derivations are counted there.
    partial = stats["cubes"]["partial"]
    assert partial["query_cache"]["derivations"] >= 1
    assert "derive_cache" not in partial


def test_flowgraph_and_exceptions_reports(app, tenant):
    payload = body_of(get(app, "/cubes/wh/flowgraph", {"cut": "d0:d0_0"}))
    graph = tenant.query.flowgraph(None, d0="d0_0")
    assert payload["n_paths"] == graph.n_paths
    assert payload["flowgraph"]["nodes"]
    assert "text" in payload
    reports = body_of(get(app, "/cubes/wh/exceptions", {}))
    assert reports["n_cells"] == len(reports["cells"])
    for cell in reports["cells"]:
        assert cell["exceptions"]


def test_stats_endpoint_layers(app):
    post(app, "/cubes/wh/slice", {"cut": "d0:d0_0"})
    stats = body_of(get(app, "/stats"))
    tenant_stats = stats["cubes"]["wh"]
    for layer in (
        "query_cache",
        "cell_cache",
        "catalog_pool",
        "response_cache",
    ):
        assert layer in tenant_stats
    assert stats["server"]["requests"] >= 2
    assert tenant_stats["version"]


# ----------------------------------------------------------------------
# real socket round-trips
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def server(store_dir):
    app = create_app({"wh": store_dir})
    with ServerThread(app) as running:
        yield running


def http_roundtrip(server, method, path, body=None):
    import http.client

    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(
            method,
            path,
            payload,
            {"Content-Type": "application/json"} if payload else {},
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_socket_slice_parity(server):
    status, body = http_roundtrip(
        server, "POST", "/cubes/wh/slice", {"cut": "d0:d0_0"}
    )
    assert status == 200
    tenant = server.app.tenants["wh"]
    assert body == scan_slice_bytes(tenant, {"d0": "d0_0"})


def test_socket_keep_alive_multiple_requests(server):
    import http.client

    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        for _ in range(3):
            conn.request("GET", "/cubes/wh")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
    finally:
        conn.close()


def test_socket_stats_and_errors(server):
    status, body = http_roundtrip(server, "GET", "/stats")
    assert status == 200
    assert "wh" in json.loads(body)["cubes"]
    status, _ = http_roundtrip(server, "GET", "/cubes/ghost")
    assert status == 404
    # An empty POST body means an empty constraint set: the apex cell.
    status, _ = http_roundtrip(server, "POST", "/cubes/wh/query", None)
    assert status == 200


# ----------------------------------------------------------------------
# invalidation under concurrent access (satellite)
# ----------------------------------------------------------------------

def test_no_stale_results_under_concurrent_mutation(tmp_path, database):
    directory = tmp_path / "hammer"
    store = PartitionedPathStore.init(directory, database.schema)
    store.ingest(database)
    build_cube(
        store,
        min_support=MIN_SUPPORT,
        into=store.cube_store(),
        compute_exceptions=False,
    )
    tenant = CubeTenant.mount("wh", directory)
    app = SlicerApp([tenant])
    cube_store = tenant.cube_store

    # A template cell plus unused coordinates in its cuboid: every
    # mutation adds one more cell to the unconstrained slice.  Pick the
    # first cuboid the iceberg pruned some coordinates out of.
    hierarchies = database.schema.dimensions
    template, candidates = None, []
    for cuboid in cube_store.cuboids:
        candidates = [
            key
            for key in iproduct(
                *(
                    sorted(h.concepts_at_level(level)) if level else ["*"]
                    for h, level in zip(hierarchies, cuboid.item_level.levels)
                )
            )
            if key not in cuboid
        ][:6]
        if candidates:
            template = next(iter(cuboid))
            break
    assert template is not None, "need free coordinates to add cells at"

    level_id = cube_store.path_lattice.index_of(template.path_level)

    def canonical() -> bytes:
        return scan_slice_bytes(tenant, {}, template.path_level)

    valid: set[bytes] = {canonical()}
    observed: list[bytes] = []
    errors: list[BaseException] = []
    stop = threading.Event()

    def reader() -> None:
        try:
            while not stop.is_set():
                response = post(
                    app, "/cubes/wh/slice", {"path_level": level_id}
                )
                assert response.status == 200
                observed.append(response.body)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for key in candidates:
            cube_store.put_cuboid(item_cell(cube_store, template, key))
            cube_store.flush()
            # put_cuboid and flush leave identical observable content, so
            # one snapshot per mutation covers every in-between state.
            valid.add(canonical())
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

    assert not errors
    assert observed
    unknown = [body for body in observed if body not in valid]
    assert not unknown, f"{len(unknown)} stale/torn responses served"
    # After the dust settles the server must answer with the final state.
    final = post(app, "/cubes/wh/slice", {"path_level": level_id})
    assert final.body == canonical()
    # put_cuboid and flush each push an invalidation to the tenant.
    assert tenant.invalidations >= 2 * len(candidates)


def test_no_stale_results_while_another_handle_appends(tmp_path, database):
    """The cross-handle path: each reload keeps the cached answers the
    write left standing, while readers hammer the tenant."""
    directory = tmp_path / "hammer"
    store = PartitionedPathStore.init(directory, database.schema)
    store.ingest(database)
    build_cube(store, min_support=4, into=store.cube_store())
    # Each batch clones one record: it rewrites one corner of the cube.
    rows = list(database)
    first, second = (
        [PathRecord(start + n, source.dims, source.path) for n in range(8)]
        for start, source in ((10_000, rows[0]), (20_000, rows[-1]))
    )
    tenant = CubeTenant.mount("wh", directory)
    app = SlicerApp([tenant])
    cuts = [""] + [
        f"{h.name}:{concept}"
        for h in database.schema.dimensions
        for level in range(1, h.depth + 1)
        for concept in sorted(h.concepts_at_level(level))
    ]
    wanted = [
        (route, {"cut": cut, **extra})
        for cut in cuts
        for route, extra in (
            ("slice", {}), ("slice", {"measure": True}), ("exceptions", {}),
        )
    ]

    def snapshot() -> list[bytes]:
        """Every wanted body, from a tenant mounted on the cube now."""
        fresh = CubeTenant.mount("wh", directory)
        try:
            fresh_app = SlicerApp([fresh])
            return [
                ok_body(post(fresh_app, f"/cubes/wh/{route}", params))
                for route, params in wanted
            ]
        finally:
            fresh.close()

    valid = [{body} for body in snapshot()]
    observed: list[tuple[int, bytes]] = []
    errors: list[BaseException] = []
    stop = threading.Event()

    def reader(offset: int) -> None:
        try:
            turn = offset
            while not stop.is_set():
                route, params = wanted[turn % len(wanted)]
                response = post(app, f"/cubes/wh/{route}", params)
                observed.append((turn % len(wanted), ok_body(response)))
                turn += 1
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    writer_store = PartitionedPathStore.open(directory)
    writer = writer_store.cube_store()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [
        threading.Thread(target=reader, args=(n,)) for n in range(4)
    ]
    try:
        for thread in threads:
            thread.start()
        while len(observed) < 2 * len(wanted) and not errors:
            time.sleep(0.01)  # every wanted answer is cached
        for write in (
            lambda: append_records(
                writer_store, first, cube=writer, compact_after=0
            ),
            writer.compact,
            lambda: append_records(
                writer_store, second, cube=writer, compact_after=0
            ),
        ):
            write()
            for bodies, body in zip(valid, snapshot()):
                bodies.add(body)
            time.sleep(0.05)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        for thread in threads:
            thread.join(timeout=30)
        writer.close()
        writer_store.close()

    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    unknown = [turn for turn, body in observed if body not in valid[turn]]
    assert not unknown, f"{len(unknown)} stale/torn responses served"
    final = snapshot()
    assert not [
        (route, params)
        for (route, params), body in zip(wanted, final)
        if ok_body(post(app, f"/cubes/wh/{route}", params)) != body
    ]
    assert tenant.responses_kept > 0
    tenant.close()


# ----------------------------------------------------------------------
# external rebuild detection
# ----------------------------------------------------------------------

def test_maybe_reload_notices_external_flush(tmp_path, database):
    directory = tmp_path / "reload"
    store = PartitionedPathStore.init(directory, database.schema)
    store.ingest(database)
    build_cube(
        store,
        min_support=MIN_SUPPORT,
        into=store.cube_store(),
        compute_exceptions=False,
    )
    tenant = CubeTenant.mount("wh", directory)
    before = tenant.version
    assert tenant.refresh() is False

    # A second handle — standing in for another process — rewrites meta.
    writer = PartitionedPathStore.open(directory).cube_store()
    template = next(iter(writer.cuboids[0]))
    writer.put_cuboid(item_cell(writer, template, template.key))
    writer.flush()

    assert tenant.refresh() is True
    assert tenant.version > before
    assert tenant.invalidations >= 1
    assert tenant.refresh() is False


def test_cross_process_append_refreshes_etag_and_serves_new_cell(
    tmp_path, database
):
    """An out-of-process ``flowcube-store append`` reaches live tenants.

    The append bumps the persisted build version, so after
    ``maybe_reload`` the tenant must serve the newly promoted cell, mint
    a fresh ETag, and answer a request carrying the *old* validator with
    a full 200 — never a stale 304.
    """
    import os
    import subprocess
    import sys
    from collections import Counter

    from repro.core.flowgraph_exceptions import resolve_min_support
    from repro.core.path import PathRecord
    from repro.core.path_database import PathDatabase

    directory = tmp_path / "wh"
    store = PartitionedPathStore.init(directory, database.schema)
    store.ingest(database)
    build_cube(store, min_support=MIN_SUPPORT, into=store.cube_store())
    tenant = CubeTenant.mount("wh", directory)
    app = SlicerApp([tenant])

    # A leaf key below the frontier: its most-detailed cell is absent.
    counts = Counter(record.dims for record in database)
    base_threshold = resolve_min_support(MIN_SUPPORT, len(database))
    donor_dims = next(
        dims for dims, count in counts.items() if count < base_threshold
    )
    donor = next(r for r in database if r.dims == donor_dims)
    cut = f"d0:{donor_dims[0]}|d1:{donor_dims[1]}"

    before = get(app, "/cubes/wh/slice", {"cut": cut})
    assert before.status == 200
    assert body_of(before)["cells"] == []
    old_etag = before.headers["ETag"]

    # Another process appends enough same-key records to promote it.
    batch = [
        PathRecord(10_000 + i, donor.dims, donor.path) for i in range(15)
    ]
    csv_path = tmp_path / "batch.csv"
    csv_path.write_text(
        PathDatabase(database.schema, batch, validate=False).to_csv(),
        encoding="utf-8",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    result = subprocess.run(
        [
            sys.executable, "-m", "repro.store.cli",
            "append", str(directory), "--csv", str(csv_path),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "created" in result.stdout

    # The live handle notices the external meta rewrite...
    assert tenant.refresh() is True

    # ...serves the promoted cell with a fresh validator...
    after = get(app, "/cubes/wh/slice", {"cut": cut})
    assert after.status == 200
    payload = body_of(after)
    assert len(payload["cells"]) == 1
    grown_threshold = resolve_min_support(MIN_SUPPORT, len(database) + 15)
    assert payload["cells"][0]["n_paths"] >= grown_threshold
    assert after.headers["ETag"] != old_etag

    # ...and the old validator revalidates to a full 200, never 304.
    stale = app.handle(
        Request(
            method="GET",
            path="/cubes/wh/slice",
            query={"cut": cut},
            headers={"if-none-match": old_etag},
        )
    )
    assert stale.status == 200
    assert json.loads(stale.body)["cells"]


# ----------------------------------------------------------------------
# atomic query-stats persistence (satellite)
# ----------------------------------------------------------------------

def test_merge_query_stats_concurrent_no_lost_increments(tmp_path):
    directory = tmp_path / "cube"
    directory.mkdir()
    workers, merges = 8, 25
    errors: list[BaseException] = []

    def writer() -> None:
        try:
            for _ in range(merges):
                merge_query_stats(
                    directory,
                    {
                        "hits": 1,
                        "misses": 2,
                        "evictions": 0,
                        "derivations": 1,
                        "capacity": 128,
                        "size": 3,
                    },
                )
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def reader() -> None:
        try:
            for _ in range(workers * merges):
                stats = load_query_stats(directory)
                assert stats is None or isinstance(stats["hits"], int)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(workers)]
    threads.append(threading.Thread(target=reader))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)

    assert not errors
    merged = load_query_stats(directory)
    assert merged["hits"] == workers * merges
    assert merged["misses"] == 2 * workers * merges
    assert merged["derivations"] == workers * merges
    assert merged["hit_rate"] == pytest.approx(1 / 3)
    # No temp droppings survive a clean run.
    leftovers = [p.name for p in directory.glob("query_stats.json.*.tmp")]
    assert not leftovers


# ----------------------------------------------------------------------
# admin routes: runtime mount / unmount
# ----------------------------------------------------------------------

def admin_post(app, path, body=None, token=None):
    headers = {} if token is None else {"x-admin-token": token}
    return app.handle(
        Request(
            method="POST",
            path=path,
            query={},
            headers=headers,
            body=json.dumps(body or {}).encode(),
        )
    )


def test_admin_routes_disabled_without_token(app):
    response = admin_post(app, "/cubes/other/mount", {"path": "/nowhere"})
    assert response.status == 403
    assert b"disabled" in response.body


def test_admin_mount_unmount_cycle(store_dir, tenant):
    app = SlicerApp([tenant], admin_token="s3cret")

    # Wrong or missing token -> 401; GET -> 405.
    assert admin_post(app, "/cubes/x/mount", token="nope").status == 401
    assert admin_post(app, "/cubes/x/mount").status == 401
    response = app.handle(
        Request(
            method="GET",
            path="/cubes/x/mount",
            query={},
            headers={"x-admin-token": "s3cret"},
        )
    )
    assert response.status == 405

    # Mount the same store under a second name and serve it.
    response = admin_post(
        app, "/cubes/wh2/mount", {"path": str(store_dir)}, token="s3cret"
    )
    assert response.status == 201
    payload = json.loads(response.body)
    assert payload["mounted"] == "wh2"
    assert payload["cube"]["cells"] > 0
    assert sorted(app.tenants) == ["wh", "wh2"]
    assert body_of(get(app, "/cubes/wh2/slice"))["n_cells"] > 0

    # Duplicate mounts, bad paths, and unknown unmounts fail loudly.
    response = admin_post(
        app, "/cubes/wh2/mount", {"path": str(store_dir)}, token="s3cret"
    )
    assert response.status == 409
    response = admin_post(
        app, "/cubes/bad/mount", {"path": str(store_dir) + "-none"},
        token="s3cret",
    )
    assert response.status == 400
    assert admin_post(
        app, "/cubes/ghost/unmount", token="s3cret"
    ).status == 404
    assert admin_post(app, "/cubes/wh2/mount", token="s3cret").status == 400

    # Unmount releases the tenant; its routes disappear.
    response = admin_post(app, "/cubes/wh2/unmount", token="s3cret")
    assert response.status == 200
    assert json.loads(response.body) == {"unmounted": "wh2"}
    assert sorted(app.tenants) == ["wh"]
    assert get(app, "/cubes/wh2/slice").status == 404

    # The last cube cannot be unmounted out from under the server.
    assert admin_post(app, "/cubes/wh/unmount", token="s3cret").status == 409
    assert body_of(get(app, "/cubes/wh/slice"))["n_cells"] > 0
