"""End-to-end smoke of ``flowcube-store serve`` against the example store.

What CI's serve-smoke job runs: build the built-in retail example store
with the CLI, start the server as a real subprocess on a free port, and
script a round trip over the JSON API — cube listing, a slice, a
roll-up, a drill-down, a point query, and the stats report — asserting
status codes and the shape of every payload.  Two requests that touch
every matching cell's measure (a ``measure=true`` slice and
``/exceptions``) are compared byte-for-byte with what this process
renders from the scan kernel's cells.  ``flowcube-store query -d …`` must
print the ``text`` the server's ``/flowgraph`` returns for the same cut
(one parser, one executor behind both), and a malformed request must be
refused with a 400.  Then ``flowcube-store append`` adds a record from
another process: the warm slices, asked again, must byte-equal what a
freshly mounted tenant renders, and ``/stats`` must show the reload kept
some cached responses and dropped others.  The server is then asked to
shut down with SIGINT and must exit cleanly.

Usage:  python scripts/serve_smoke.py [workdir]

Exits non-zero (with an AssertionError traceback) on any failure.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.serialization import flowgraph_to_dict
from repro.query.api import FlowCubeQuery
from repro.serve import CubeTenant, Request, SlicerApp, slice_payload
from repro.serve.http import encode_json

CLI = [sys.executable, "-m", "repro.store.cli"]
ADDRESS = re.compile(r"at http://([\d.]+):(\d+)")


def cli(*args: str) -> None:
    subprocess.run([*CLI, *args], check=True)


def request_bytes(host, port, method, path, body=None):
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, payload, headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def request(host, port, method, path, body=None):
    status, raw = request_bytes(host, port, method, path, body)
    return status, json.loads(raw)


def wait_for_address(process) -> tuple[str, int]:
    """The (host, port) the serve subprocess prints once it is bound."""
    deadline = time.time() + 30
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = ADDRESS.search(line)
        if match:
            return match.group(1), int(match.group(2))
    raise AssertionError("server never printed its address")


def round_trip(host: str, port: int) -> None:
    status, info = request(host, port, "GET", "/")
    assert status == 200 and info["cubes"] == ["wh"], info

    status, detail = request(host, port, "GET", "/cubes/wh")
    assert status == 200, detail
    assert detail["cells"] > 0, detail
    assert detail["version"], "build version missing from /cubes/wh"

    status, cuboids = request(host, port, "GET", "/cubes/wh/cuboids")
    assert status == 200 and cuboids["cuboids"], cuboids

    status, sliced = request(
        host, port, "POST", "/cubes/wh/slice", {"cut": "product:clothing"}
    )
    assert status == 200 and sliced["n_cells"] >= 1, sliced
    # The cut matches the concept and everything under it.
    assert any(c["key"] == ["clothing", "*"] for c in sliced["cells"]), sliced

    status, rolled = request(
        host,
        port,
        "POST",
        "/cubes/wh/rollup",
        {"cut": "product:clothing", "dimension": "product"},
    )
    assert status == 200 and rolled["cell"]["key"][0] == "*", rolled

    status, drilled = request(
        host, port, "POST", "/cubes/wh/drilldown", {"dimension": "brand"}
    )
    assert status == 200 and drilled["n_cells"] >= 1, drilled

    status, queried = request(
        host, port, "POST", "/cubes/wh/query", {"cut": "product:clothing"}
    )
    assert status == 200 and queried["cell"]["flowgraph"]["nodes"], queried

    status, _ = request(host, port, "GET", "/cubes/nope")
    assert status == 404

    status, stats = request(host, port, "GET", "/stats")
    assert status == 200, stats
    tenant = stats["cubes"]["wh"]
    assert tenant["response_cache"]["misses"] >= 1, tenant
    assert stats["server"]["requests"] >= 8, stats


def measure_parity(host: str, port: int, store: Path) -> None:
    """The routes that decode every matching cell, against the scan kernel."""
    dims = {"product": "clothing"}
    tenant = CubeTenant.mount("wh", store)
    try:
        cells = FlowCubeQuery(tenant.cube_store, kernel="scan").slice_cells(
            None, **dims
        )
        assert cells, "the parity cut matches no cell"
        status, served = request_bytes(
            host, port, "POST", "/cubes/wh/slice",
            {"cut": "product:clothing", "measure": True},
        )
        assert status == 200, served
        expected = encode_json(slice_payload(tenant, dims, None, cells, True))
        assert served == expected, "measure=true slice differs from the scan kernel"

        status, served = request_bytes(
            host, port, "GET", "/cubes/wh/exceptions?cut=product:clothing"
        )
        assert status == 200, served
        reports = [
            {
                "key": list(cell.key),
                "item_level": list(cell.item_level.levels),
                "exceptions": flowgraph_to_dict(cell.flowgraph)["exceptions"],
            }
            for cell in cells
            if cell.flowgraph.exceptions
        ]
        assert reports, "the parity cut carries no exception"
        expected = encode_json(
            {
                "cube": "wh",
                "cut": "product:clothing",
                "n_cells": len(reports),
                "cells": reports,
            }
        )
        assert served == expected, "/exceptions differs from the scan kernel"
    finally:
        tenant.close()


def one_plan(host: str, port: int, store: Path) -> None:
    """The CLI and the server answer the same request from the same plan."""
    status, served = request(
        host, port, "GET", "/cubes/wh/flowgraph?cut=product:clothing"
    )
    assert status == 200, served
    printed = subprocess.run(
        [*CLI, "query", str(store), "-d", "product=clothing"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    assert printed == (
        "flowgraph measure of product=clothing:\n" + served["text"] + "\n"
    ), "flowcube-store query differs from the /flowgraph text"

    status, refused = request(
        host, port, "POST", "/cubes/wh/slice", {"path_level": 1.7}
    )
    assert status == 400 and "path_level" in refused["error"], refused


#: Slices warmed before the append: one the appended record falls under
#: and one it does not, for every dimension.
WARM_CUTS = (
    "", "product:clothing", "product:shoes", "product:outerwear",
    "brand:nike", "brand:adidas",
)
#: The appended record: an adidas shirt, which touches no ``shoes`` and
#: no ``nike`` cell.
APPENDED = (
    "id,product,brand,path\n"
    "100,shirt,adidas,factory:10|truck:1|shelf:5|checkout:0\n"
)


def warm_slices(host: str, port: int) -> dict[str, bytes]:
    """Each warm cut's slice body, as the server answers it."""
    bodies = {}
    for cut in WARM_CUTS:
        status, bodies[cut] = request_bytes(
            host, port, "POST", "/cubes/wh/slice", {"cut": cut}
        )
        assert status == 200, cut
    return bodies


def append_under_the_server(
    host: str, port: int, store: Path, workdir: Path
) -> None:
    """Another process appends; the server keeps what it did not touch.

    The warm cuts are answered again after ``flowcube-store append`` ran
    in a subprocess, and must byte-equal what a tenant mounted afresh in
    this process renders; ``/stats`` must show the reload kept at least
    one cached response and dropped at least one.
    """
    warm_slices(host, port)
    batch = workdir / "append.csv"
    batch.write_text(APPENDED, encoding="utf-8")
    cli("append", str(store), "--csv", str(batch), "--compact-after", "0")

    served = warm_slices(host, port)
    tenant = CubeTenant.mount("wh", store)
    try:
        app = SlicerApp([tenant])
        for cut in WARM_CUTS:
            expected = app.handle(
                Request(
                    method="POST", path="/cubes/wh/slice", query={},
                    headers={}, body=json.dumps({"cut": cut}).encode(),
                )
            ).body
            assert served[cut] == expected, f"slice {cut!r} is stale"
    finally:
        tenant.close()

    status, stats = request(host, port, "GET", "/stats")
    assert status == 200, stats
    tenant_stats = stats["cubes"]["wh"]
    assert tenant_stats["responses_kept"] >= 1, tenant_stats
    assert tenant_stats["responses_dropped"] >= 1, tenant_stats


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    workdir = Path(argv[0]) if argv else Path(tempfile.mkdtemp("serve-smoke"))
    store = workdir / "wh"
    cli("init", "--example", str(store))
    cli("ingest", "--example", str(store))
    cli("build", str(store))

    process = subprocess.Popen(
        [*CLI, "serve", "--cubes", f"wh={store}", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        host, port = wait_for_address(process)
        round_trip(host, port)
        measure_parity(host, port, store)
        one_plan(host, port, store)
        append_under_the_server(host, port, store, workdir)
    finally:
        process.send_signal(signal.SIGINT)
        exit_code = process.wait(timeout=15)
    assert exit_code == 0, f"server exited with {exit_code}"
    print("serve smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
