"""One publish function and one open, checked without running anything.

Every file that becomes visible under a store directory goes through
:func:`repro.publish.publish_file`; ``tests/test_publish_points.py``
enumerates the store's crash windows by counting its calls, which only
means something while no second way to rename or write a file in place
exists.  This walks the source tree's syntax and fails on one — and,
on the read side, on a second place that maps a file or frames a
sectioned container.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Where in-place writes are also forbidden: the store and the one
#: module outside it that writes into a store directory.
STORE_WRITERS = [
    *sorted((SRC / "store").glob("*.py")),
    SRC / "perf" / "query_kernel.py",
]

HINT = (
    "route it through repro.publish.publish_file: that function is where "
    "the durability fsync (file, then directory) and the fault-injection "
    "kill hook go, and tests/test_publish_points.py only sees what it is "
    "called for"
)


OPEN_HINT = (
    "map files with repro.store.binfmt.map_file and frame sectioned "
    "containers with binfmt.Layout.pack / Layout.open: those are where "
    "the integrity PR's per-section CRC field and its verification go, "
    "and what `flowcube-store verify` will walk"
)


def calls_with_scope(path, kind=ast.Call):
    """Every call (or other *kind* of node) in *path* as ``(node, dotted
    enclosing scope)``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, kind):
                found.append((child, scope))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def where(path, node):
    return f"{path.relative_to(SRC.parents[1])}:{node.lineno}"


def is_rename(call):
    """``os.replace`` / ``os.rename`` by name; ``Path.replace`` /
    ``Path.rename`` by shape — one positional argument and nothing else,
    which ``str.replace(old, new)`` and ``dataclasses.replace(obj, **kw)``
    never have."""
    function = call.func
    if not isinstance(function, ast.Attribute):
        return False
    if function.attr not in ("replace", "rename"):
        return False
    if isinstance(function.value, ast.Name) and function.value.id == "os":
        return True
    return len(call.args) == 1 and not call.keywords


def test_one_function_renames_files_into_place():
    renames = [
        (where(path, call), scope)
        for path in sorted(SRC.rglob("*.py"))
        for call, scope in calls_with_scope(path)
        if is_rename(call)
    ]
    assert [scope for _, scope in renames] == ["publish_file"], (
        f"files are renamed into place at {renames}; {HINT}"
    )
    assert renames[0][0].startswith("src/repro/publish.py:")


def opens_for_writing(call):
    function = call.func
    if not (isinstance(function, ast.Name) and function.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False
    if not isinstance(mode, ast.Constant):
        return True  # a computed mode: assume the worst
    return bool(set(mode.value) & set("wax+"))


def test_the_store_writes_files_only_through_publish_file():
    in_place = []
    for path in STORE_WRITERS:
        for call, scope in calls_with_scope(path):
            function = call.func
            if isinstance(function, ast.Attribute) and function.attr in (
                "write_bytes",
                "write_text",
            ):
                in_place.append((where(path, call), scope))
            elif opens_for_writing(call) and scope != "_Segment.__init__":
                # A staged heap segment is the one file the store writes
                # incrementally; it is published by publish_file too.
                in_place.append((where(path, call), scope))
    assert not in_place, (
        f"files are written onto their final name at {in_place}; {HINT}"
    )


def test_one_function_maps_files():
    maps = [
        (where(path, call), scope)
        for path in sorted(SRC.rglob("*.py"))
        for call, scope in calls_with_scope(path)
        if ast.unparse(call.func) == "mmap.mmap"
    ]
    assert [scope for _, scope in maps] == ["map_file"], (
        f"files are mapped at {maps}; {OPEN_HINT}"
    )
    assert maps[0][0].startswith("src/repro/store/binfmt.py:")


def test_only_the_layout_table_reads_and_writes_the_order_tag():
    uses = [
        (where(path, name), scope)
        for path in sorted(SRC.rglob("*.py"))
        for name, scope in calls_with_scope(path, ast.Name)
        if name.id == "ORDER_TAG" and isinstance(name.ctx, ast.Load)
    ]
    assert sorted({scope for _, scope in uses}) == [
        "Layout.open",
        "Layout.pack",
    ], f"container headers are framed at {uses}; {OPEN_HINT}"
