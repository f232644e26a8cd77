"""Spans around the program's public callables, recorded from outside it.

The benchmark wraps the callables in :data:`SPANS` at run time — the
program itself is not edited — patching every module that imported the
callable by name, and records ``{name, start, end, parent, run_id}``
spans in memory.  A layer's *self time* is its span minus the part its
child spans cover, so the rows of one stage sum to the stage's wall
clock; what no listed callable covers lands in ``<stage>.unattributed``.

Only public names are listed.  A listed attribute that no longer exists
aborts the run with a message, so a later refactor fails loudly instead
of silently losing a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: ``(layer, module, attribute)``; ``Class.method`` patches the class.
SPANS = [
    ("synth.generate", "repro.synth.generator", "generate_path_database"),
    ("builder.shared_mine_store", "repro.store.builder", "shared_mine_store"),
    ("builder.build_cube", "repro.store.builder", "build_cube"),
    ("pathstore.ingest", "repro.store.pathstore", "PartitionedPathStore.ingest"),
    ("binfmt.pack_partition", "repro.store.binfmt", "pack_partition"),
    ("partition.summarise", "repro.store.partition", "summarise_partition"),
    ("binfmt.strings", "repro.store.binfmt", "StringTable.save"),
    ("pathstore.load_partition", "repro.store.partition", "read_partition"),
    ("binfmt.unpack_partition", "repro.store.binfmt", "unpack_partition"),
    (
        "transactions.encode",
        "repro.encoding.transactions",
        "TransactionDatabase.__init__",
    ),
    ("bitmap.count_candidates", "repro.perf.bitmap", "count_candidates_masks"),
    ("mining.generate_candidates", "repro.mining.apriori", "generate_candidates"),
    ("mining.precount_prune", "repro.mining.shared", "precount_prune"),
    (
        "mining.segments_by_cell",
        "repro.mining.result",
        "FlowMiningResult.segments_by_cell",
    ),
    ("rollup.scan_records", "repro.perf.measure_rollup", "scan_records"),
    ("rollup.merge_scan", "repro.perf.measure_rollup", "merge_scan"),
    ("rollup.derive_levels", "repro.perf.measure_rollup", "derive_levels"),
    ("rollup.prune_to_iceberg", "repro.perf.measure_rollup", "prune_to_iceberg"),
    ("rollup.assemble_cuboids", "repro.perf.measure_rollup", "assemble_cuboids"),
    ("flowgraph.merge", "repro.core.flowgraph", "FlowGraph.merge"),
    ("exception_kernel.cell_index", "repro.perf.exception_kernel", "cell_index"),
    (
        "exception_kernel.mine_segments",
        "repro.perf.exception_kernel",
        "mine_segments_bitmap",
    ),
    (
        "exception_kernel.mine_exceptions",
        "repro.perf.exception_kernel",
        "mine_exceptions_bitmap",
    ),
    ("binfmt.encode_cell", "repro.store.binfmt", "encode_cell_payload"),
    ("binfmt.pack_cell_index", "repro.store.binfmt", "pack_cell_index"),
    ("cube_store.put_cuboid", "repro.store.cube_store", "CubeStore.put_cuboid"),
    ("cube_store.flush", "repro.store.cube_store", "CubeStore.flush"),
    ("cube_store.open", "repro.store.cube_store", "CubeStore.__init__"),
    ("binfmt.unpack_cell_index", "repro.store.binfmt", "unpack_cell_index"),
    ("tenant.mount", "repro.serve.tenant", "CubeTenant.mount"),
    ("cuts.parse_cut", "repro.serve.cuts", "parse_cut"),
    (
        "query_kernel.catalog_build",
        "repro.perf.query_kernel",
        "CuboidKeyCatalog.__init__",
    ),
    (
        "query_kernel.match_mask",
        "repro.perf.query_kernel",
        "CuboidKeyCatalog.match_mask",
    ),
    ("cube_store.cell_read", "repro.store.cube_store", "CubeStore.cell"),
    ("binfmt.decode_cell", "repro.store.binfmt", "decode_cell_parts"),
    ("query.slice_cells", "repro.query.api", "FlowCubeQuery.slice_cells"),
    ("app.slice_payload", "repro.serve.app", "slice_payload"),
    ("http.encode_json", "repro.serve.http", "encode_json"),
    ("app.handle", "repro.serve.app", "SlicerApp.handle"),
    ("pathstore.append", "repro.store.append", "append_records"),
    ("cube_store.begin_delta", "repro.store.cube_store", "CubeStore.begin_delta"),
    ("cube_store.merge_cells", "repro.store.cube_store", "CubeStore.merge_cells"),
    ("cube_store.reload", "repro.store.cube_store", "CubeStore.maybe_reload"),
    ("cube_store.compact", "repro.store.cube_store", "CubeStore.compact"),
]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, run_id]`` per span.
        self.spans: list[list] = []
        self.run_id = ""
        self._local = threading.local()
        self._undo: list = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        index = len(self.spans)
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
        self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, function):
        spans, stack_of, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = stack_of()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every callable of :data:`SPANS` (undo with :meth:`remove`)."""
        for layer, module_name, attribute in SPANS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[leaf] if path else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.remove()
                raise SystemExit(
                    f"flowbench: traced callable {module_name}.{attribute} "
                    f"(layer {layer!r}) no longer exists; update "
                    "benchmarks/flowbench/tracing.py:SPANS"
                ) from None
            if path:  # a method: rebind on the class, keeping its kind
                function = raw.__func__ if isinstance(
                    raw, (classmethod, staticmethod)
                ) else raw
                wrapped = self.wrap(layer, function)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(wrapped)
                setattr(owner, leaf, wrapped)
                self._undo.append((owner, leaf, raw))
            else:  # a function: every module that imported it by name
                wrapped = self.wrap(layer, raw)
                for other in list(sys.modules.values()):
                    names = getattr(other, "__dict__", None)
                    if not names or not getattr(other, "__name__", "").startswith(
                        ("repro", "benchmarks.flowbench")
                    ):
                        continue
                    for name, value in list(names.items()):
                        if value is raw:
                            setattr(other, name, wrapped)
                            self._undo.append((other, name, raw))

    def remove(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def stage_table(self, root: int) -> tuple[dict, dict, float]:
        """Self seconds and call counts per layer under span *root*.

        Returns ``(self seconds, calls, root self seconds)``; the self
        seconds plus the root's own sum to the root's duration.
        """
        spans = self.spans
        end = root + 1
        # Spans are appended in start order, so the subtree of *root* is
        # the contiguous run of spans whose ancestor chain reaches it.
        inside = {root}
        child_time: dict[int, float] = defaultdict(float)
        while end < len(spans) and spans[end][3] in inside:
            inside.add(end)
            child_time[spans[end][3]] += spans[end][2] - spans[end][1]
            end += 1
        self_seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index in inside:
            if index == root:
                continue
            name, start, stop = spans[index][:3]
            self_seconds[name] += (stop - start) - child_time[index]
            calls[name] += 1
        root_self = (spans[root][2] - spans[root][1]) - child_time[root]
        return dict(self_seconds), dict(calls), root_self

    def write_chrome_trace(self, path: Path) -> None:
        """The spans as Chrome-trace ``X`` events (open in Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (stop - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent, "run_id": run_id},
            }
            for index, (name, start, stop, parent, run_id) in enumerate(
                self.spans
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
