"""Command-line entry point: ``flowcube-store``.

A thin operational shell around the partitioned store::

    flowcube-store init ./wh --synthetic --partition-size 250
    flowcube-store ingest ./wh --synthetic --n-paths 1000 --seed 7
    flowcube-store build ./wh --min-support 0.05
    flowcube-store append ./wh --synthetic --n-paths 100 --seed 8
    flowcube-store compact ./wh
    flowcube-store query ./wh -d d0=d0_0
    flowcube-store stats ./wh
    flowcube-store serve --cubes wh=./wh --host 127.0.0.1 --port 8642

``init`` fixes the schema (the example retail schema or a synthetic one);
``ingest`` appends partitions — from a CSV in the
:meth:`~repro.core.path_database.PathDatabase.to_csv` format, the built-in
example, or the Section 6.1 generator (whose configuration ``init``
recorded in the catalog, so later ingests reuse the same hierarchies);
``build`` materialises the iceberg cube out-of-core into the store's
``cube/`` directory, one partition at a time in this process; ``append``
ingests a batch *and* delta-merges it into the built cube
(:mod:`repro.store.append`) — touched cells land in
append-only ``cells.delta.G.bin`` segments instead of a heap rewrite,
auto-compacting once ``--compact-after`` segments pile up; ``compact``
folds pending delta segments back into a clean base heap on demand;
``query`` renders a cell's flowgraph measure — the HTTP slicer's
``/flowgraph`` request, same :class:`~repro.query.plan.Plan` — with
``--derive``, coordinates whose cuboid was not materialised are merged
from the cheapest materialised descendant (the roll-up planner), and the
query-cache counters are folded into ``cube/query_stats.json`` so
``stats`` can report serving behaviour across invocations; ``serve``
mounts one or more built stores as named tenants of the asyncio HTTP
slicer (:mod:`repro.serve`) and answers slice/rollup/drilldown/query,
flowgraph and exception reports, and cache statistics as a JSON API.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path as FsPath

from repro.core.path import PathRecord
from repro.core.path_database import PathDatabase, example_path_database
from repro.errors import FlowCubeError, StoreError
from repro.perf.query_kernel import (
    QUERY_STATS_FILENAME,
    load_query_stats,
    merge_query_stats,
)
from repro.query.api import FlowCubeQuery
from repro.query.plan import Plan
from repro.query.render import render_text
from repro.store.append import append_records
from repro.store.binfmt import STRINGS_FILENAME
from repro.store.builder import BuildStats, build_cube
from repro.store.cube_store import META_FILENAME
from repro.store.pathstore import PARTITIONS_DIR, PartitionedPathStore
from repro.synth.generator import GeneratorConfig, generate_path_database

__all__ = ["main"]

#: GeneratorConfig fields that shape the *schema* (persisted in the
#: catalog so every later ``ingest --synthetic`` regenerates hierarchies
#: that fingerprint identically).
_GENERATOR_KEYS = (
    "n_dims",
    "dim_fanouts",
    "n_location_groups",
    "locations_per_group",
    "max_duration",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcube-store",
        description=(
            "Manage a partitioned on-disk FlowCube store: ingest path "
            "records, build the iceberg cube out-of-core, query cells."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    init = sub.add_parser("init", help="create an empty store")
    init.add_argument("store", help="store directory")
    source = init.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--example",
        action="store_true",
        help="use the built-in retail example schema",
    )
    source.add_argument(
        "--synthetic",
        action="store_true",
        help="use a Section 6.1 synthetic schema",
    )
    init.add_argument("--partition-size", type=int, default=512)
    init.add_argument("--n-dims", type=int, default=5)
    init.add_argument(
        "--fanouts",
        default="5,5,10",
        help="per-level dimension fanouts, comma separated",
    )
    init.add_argument("--n-location-groups", type=int, default=4)
    init.add_argument("--locations-per-group", type=int, default=4)
    init.add_argument("--max-duration", type=int, default=10)

    ingest = sub.add_parser("ingest", help="append records as new partitions")
    ingest.add_argument("store")
    source = ingest.add_mutually_exclusive_group(required=True)
    source.add_argument("--csv", metavar="FILE", help="PathDatabase CSV file")
    source.add_argument(
        "--example",
        action="store_true",
        help="ingest the built-in example records",
    )
    source.add_argument(
        "--synthetic",
        action="store_true",
        help="generate records with the schema the store was initialised with",
    )
    ingest.add_argument("--n-paths", type=int, default=1000)
    ingest.add_argument("--seed", type=int, default=7)

    append = sub.add_parser(
        "append",
        help="ingest a batch and delta-merge it into the built cube",
    )
    append.add_argument("store")
    batch_source = append.add_mutually_exclusive_group(required=True)
    batch_source.add_argument(
        "--csv", metavar="FILE", help="PathDatabase CSV file"
    )
    batch_source.add_argument(
        "--example",
        action="store_true",
        help="append the built-in example records (ids shifted)",
    )
    batch_source.add_argument(
        "--synthetic",
        action="store_true",
        help="generate records with the schema the store was initialised with",
    )
    append.add_argument("--n-paths", type=int, default=100)
    append.add_argument("--seed", type=int, default=7)
    append.add_argument(
        "--compact-after",
        type=int,
        default=16,
        metavar="N",
        help=(
            "fold delta segments into a clean base heap once N are "
            "pending (0 disables auto-compaction)"
        ),
    )

    compact = sub.add_parser(
        "compact",
        help="fold pending cube delta segments into a clean base heap",
    )
    compact.add_argument("store")

    build = sub.add_parser(
        "build", help="materialise the iceberg cube (out-of-core)"
    )
    build.add_argument("store")
    build.add_argument("--min-support", type=float, default=0.01)
    build.add_argument("--min-deviation", type=float, default=0.1)
    build.add_argument(
        "--no-exceptions",
        action="store_true",
        help="build without flowgraph exceptions (no cell mines any)",
    )

    query = sub.add_parser("query", help="render one cell's flowgraph")
    query.add_argument("store")
    query.add_argument(
        "-d",
        "--dim",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="dimension constraint (repeatable)",
    )
    query.add_argument(
        "--path-level",
        type=int,
        default=None,
        help="path-lattice index (default: most detailed level)",
    )
    query.add_argument(
        "--derive",
        action="store_true",
        help=(
            "answer non-materialised coordinates by merging the cheapest "
            "materialised descendant cuboid (roll-up planner) instead of "
            "failing"
        ),
    )

    stats = sub.add_parser("stats", help="catalog, cube, and cache statistics")
    stats.add_argument("store")

    serve = sub.add_parser(
        "serve", help="serve built cubes over HTTP (JSON slicer API)"
    )
    serve.add_argument(
        "--cubes",
        action="append",
        required=True,
        metavar="NAME=PATH",
        help=(
            "mount the store at PATH as tenant NAME (repeatable; a bare "
            "PATH uses the directory name)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (0 picks a free one and prints it)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=8,
        help="request-handler thread pool size",
    )
    serve.add_argument("--cache-size", type=int, default=256)
    serve.add_argument(
        "--token",
        default=None,
        help="require 'Authorization: Bearer TOKEN' on every request",
    )
    serve.add_argument(
        "--admin-token",
        default=None,
        help=(
            "enable POST /cubes/{name}/mount and /unmount; requests must "
            "carry the token in an X-Admin-Token header (off by default)"
        ),
    )
    serve.add_argument(
        "--max-age",
        type=int,
        default=60,
        metavar="SECONDS",
        help=(
            "Cache-Control: max-age emitted next to ETags on cacheable "
            "responses (0 forces revalidation; default 60)"
        ),
    )
    return parser


def _synthetic_config(args: argparse.Namespace) -> GeneratorConfig:
    fanouts = tuple(int(part) for part in args.fanouts.split(","))
    return GeneratorConfig(
        n_paths=1,
        n_dims=args.n_dims,
        dim_fanouts=fanouts,
        n_location_groups=args.n_location_groups,
        locations_per_group=args.locations_per_group,
        max_duration=args.max_duration,
    )


def _shift_ids(records, floor: int) -> list[PathRecord]:
    """Re-id a batch to sit just above the store's high-water mark."""
    return [
        PathRecord(floor + offset + 1, record.dims, record.path)
        for offset, record in enumerate(records)
    ]


def _cmd_init(args: argparse.Namespace) -> int:
    extra: dict = {}
    if args.example:
        schema = example_path_database().schema
        extra["source"] = "example"
    else:
        config = _synthetic_config(args)
        schema = generate_path_database(config).schema
        extra["source"] = "synthetic"
        extra["generator"] = {
            key: value
            for key, value in asdict(config).items()
            if key in _GENERATOR_KEYS
        }
    store = PartitionedPathStore.init(
        args.store,
        schema,
        partition_size=args.partition_size,
        extra=extra,
    )
    print(
        f"initialised {extra['source']} store at {store.directory} "
        f"(partition size {store.partition_size}, "
        f"fingerprint {store.catalog.fingerprint[:12]})"
    )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    store = PartitionedPathStore.open(args.store)
    rows = _batch_records(store, args)
    # CSV rows validated as they parsed; generated ones are the schema's.
    written = store.ingest(rows, validate=bool(args.example))
    print(
        f"ingested {len(rows)} records into {len(written)} new partition(s); "
        f"store now holds {len(store)} records in "
        f"{len(store.catalog.partitions)} partition(s)"
    )
    return 0


def _batch_records(
    store: PartitionedPathStore, args: argparse.Namespace
) -> list[PathRecord]:
    """Resolve an ingest or append batch from ``--csv`` / ``--example`` /
    ``--synthetic``."""
    floor = store.catalog.max_record_id
    if args.csv:
        text = FsPath(args.csv).read_text(encoding="utf-8")
        return list(PathDatabase.from_csv(store.schema, text))
    if args.example:
        return _shift_ids(example_path_database(), floor)
    generator = store.catalog.extra.get("generator")
    if generator is None:
        raise StoreError(
            "this store was not initialised with --synthetic "
            "(no generator configuration in the catalog)"
        )
    config = GeneratorConfig(
        n_paths=args.n_paths,
        seed=args.seed,
        dim_fanouts=tuple(generator["dim_fanouts"]),
        **{k: generator[k] for k in _GENERATOR_KEYS if k != "dim_fanouts"},
    )
    return _shift_ids(generate_path_database(config), floor)


def _cmd_append(args: argparse.Namespace) -> int:
    store = PartitionedPathStore.open(args.store)
    rows = _batch_records(store, args)
    cube_store = store.cube_store()
    result = append_records(
        store,
        rows,
        cube=cube_store,
        compact_after=args.compact_after,
    )
    print(
        f"appended {result['ingested']} records into the cube at "
        f"{cube_store.directory}: {result['updated']} cell(s) updated, "
        f"{result['created']} created ({result['promoted']} key(s) crossed "
        f"the iceberg frontier), {result['demoted']} demoted, "
        f"{result['still_below_delta']} candidate(s) still below delta"
    )
    if result["compacted"]:
        print(
            f"compacted {result['compacted']} cell(s) into a clean heap "
            f"(threshold {args.compact_after} delta segments)"
        )
    else:
        print(f"{result['delta_segments']} delta segment(s) pending")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    store = PartitionedPathStore.open(args.store)
    cube_store = store.cube_store()
    if not cube_store.is_built:
        raise StoreError(
            f"no cube has been built at {store.directory} "
            "(run `flowcube-store build` first)"
        )
    pending = len(cube_store.delta_segments)
    folded = cube_store.compact()
    if folded:
        print(
            f"folded {pending} delta segment(s) ({folded} cells) into a "
            f"clean base heap at {cube_store.directory}"
        )
    else:
        print("no delta segments pending; nothing to compact")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    store = PartitionedPathStore.open(args.store)
    if len(store) == 0:
        raise StoreError("the store is empty — ingest records first")
    cube_store = store.cube_store()
    stats = BuildStats()
    build_cube(
        store,
        min_support=args.min_support,
        min_deviation=args.min_deviation,
        compute_exceptions=not args.no_exceptions,
        into=cube_store,
        stats=stats,
    )
    print(
        f"built {stats.cells} cells in {stats.cuboids} cuboids from "
        f"{stats.records} records across {stats.partitions} partition(s) "
        f"in {stats.elapsed_seconds:.2f}s "
        f"({stats.scans} partition scans, peak "
        f"{stats.max_live_transaction_dbs} encoded partition(s) in memory)"
    )
    if stats.phase_seconds:
        breakdown = ", ".join(
            f"{name} {seconds:.2f}s"
            for name, seconds in sorted(stats.phase_seconds.items())
        )
        print(f"phases: {breakdown}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    store = PartitionedPathStore.open(args.store)
    cube_store = store.cube_store()
    if not cube_store.is_built:
        raise StoreError(
            f"no cube has been built at {store.directory} "
            "(run `flowcube-store build` first)"
        )
    plan = Plan.parse(
        "flowgraph",
        {"path_level": args.path_level, "derive": args.derive},
        pairs=args.dim,
    )
    query = FlowCubeQuery(cube_store)
    graph = plan.run(query)
    label = ", ".join(f"{k}={v}" for k, v in plan.dims) or "the apex cell"
    stats = query.cache_stats()
    if stats["derivations"]:
        item_level, _ = query.coordinates(**dict(plan.dims))
        lattice = cube_store.path_lattice
        level = None if plan.path_level is None else lattice[plan.path_level]
        source = query.plan_for(item_level, level)
        note = "" if source is None or source.exact else (
            " (iceberg-pruned source: derived counts are lower bounds)"
        )
        print(
            f"derived from cuboid {source.source.levels!r} "
            f"({source.source_cells} cells, lattice distance {source.distance})"
            f"{note}"
        )
    print(f"flowgraph measure of {label}:")
    print(render_text(graph))
    merge_query_stats(cube_store.directory, stats)
    return 0


def _size(path: FsPath) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


def file_bytes(store: PartitionedPathStore, cube_store) -> dict[str, object]:
    """The store's bytes per file role, from ``stat`` calls alone: the
    partitions (total and count), ``strings.bin``, the cube's path table,
    index, heap and each delta segment (as the cube meta lists them), and
    the JSON meta files; ``total`` is their sum."""
    partitions = store.directory / PARTITIONS_DIR
    parts = [_size(partitions / meta.filename) for meta in store.catalog.partitions]
    cube_dir = cube_store.directory
    out: dict[str, object] = {
        "partitions": {"count": len(parts), "bytes": sum(parts)},
        "strings": _size(partitions / STRINGS_FILENAME),
        "paths": 0,
        "index": 0,
        "heap": 0,
        "delta_segments": {},
        "meta": sum(
            _size(path)
            for path in (
                store.catalog.path,
                cube_dir / META_FILENAME,
                cube_dir / QUERY_STATS_FILENAME,
            )
        ),
    }
    if cube_store.is_built:
        files = cube_store.describe()["files"]
        segments = dict(files["segments"])
        out["paths"] = _size(cube_dir / files["paths"])
        out["index"] = _size(cube_dir / files["index"])
        out["heap"] = _size(cube_dir / segments.pop(0))
        out["delta_segments"] = {
            name: _size(cube_dir / name) for _, name in sorted(segments.items())
        }
    out["total"] = sum(parts) + sum(out["delta_segments"].values()) + sum(
        out[role] for role in ("strings", "paths", "index", "heap", "meta")
    )
    return out


def _cmd_stats(args: argparse.Namespace) -> int:
    store = PartitionedPathStore.open(args.store)
    report: dict[str, object] = {"store": store.describe()}
    cube_store = store.cube_store()
    if cube_store.is_built:
        cube_report = cube_store.describe()
        query_stats = load_query_stats(cube_store.directory)
        if query_stats is not None:
            cube_report["query_cache"] = query_stats
        report["cube"] = cube_report
    report["bytes"] = file_bytes(store, cube_store)
    print(json.dumps(report, indent=2))
    return 0


def _parse_cube_mounts(entries: list[str]) -> dict[str, str]:
    """``NAME=PATH`` (or bare ``PATH``) entries into a tenant mapping."""
    cubes: dict[str, str] = {}
    for entry in entries:
        name, separator, path = entry.partition("=")
        if not separator:
            path = entry
            name = FsPath(entry).name or entry
        if not name or not path:
            raise StoreError(
                f"bad --cubes entry {entry!r}; expected NAME=PATH"
            )
        if name in cubes:
            raise StoreError(f"tenant name {name!r} given twice")
        cubes[name] = path
    return cubes


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here: the serve subsystem pulls in asyncio machinery no
    # other verb needs.
    from repro.serve import create_app, run

    app = create_app(
        _parse_cube_mounts(args.cubes),
        cache_size=args.cache_size,
        token=args.token,
        max_age=args.max_age,
        admin_token=args.admin_token,
    )

    def ready(address: tuple[str, int]) -> None:
        host, port = address
        names = ", ".join(sorted(app.tenants))
        print(
            f"serving {len(app.tenants)} cube(s) [{names}] "
            f"at http://{host}:{port}",
            flush=True,
        )

    try:
        asyncio.run(
            run(
                app,
                host=args.host,
                port=args.port,
                workers=args.workers,
                ready=ready,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


_COMMANDS = {
    "init": _cmd_init,
    "ingest": _cmd_ingest,
    "append": _cmd_append,
    "compact": _cmd_compact,
    "build": _cmd_build,
    "query": _cmd_query,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI body; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except FlowCubeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed early (e.g. ``query … | head``).  Point stdout
        # at devnull so the interpreter's exit flush doesn't raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
