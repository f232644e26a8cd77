"""One request, one value: the :class:`Plan` every front-end parses into.

Slice/dice, point lookup, roll-up, drill-down and the two reports built on
a slice are one small closed operator set over one cube value ("A Formal
Algebra for OLAP"), so a request for any of them is one flat, frozen
:class:`Plan`: :meth:`Plan.parse` is the only parser of request
parameters, :attr:`Plan.key` the only request key (response cache, ETag),
:meth:`Plan.run` the only executor.  The library, ``flowcube-store query``
and the HTTP slicer differ in where the parameters come from and how the
result is rendered.  :mod:`repro.serve.cuts` documents the cut syntax.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import attrgetter

from repro.errors import QueryError, ServeError

__all__ = ["OPS", "Plan", "format_cut", "parse_cut"]

#: Separates dimension constraints inside one cut string.
CUT_SEPARATOR = "|"

#: Separates a dimension name from its wanted concept.
VALUE_SEPARATOR = ":"

#: Every operation, with the optional plan fields it reads.  The parser
#: leaves the others at their defaults, so requests that differ only in a
#: parameter the operation ignores share one key.
OPS: dict[str, set[str]] = {
    "slice": {"measure"},
    "cell": {"derive"},
    "flowgraph": {"derive"},
    "exceptions": set(),
    "rollup": {"dimension", "derive", "measure"},
    "drilldown": {"dimension", "derive", "measure"},
}

#: The operations whose answer is the cells their cut selects at their
#: path level, in cube order, rendered from those cells alone — so it
#: holds until a cell the cut selects changes.  The others may read cells
#: the cut does not select (a parent, children, a derivation's source,
#: redundancy inference) and are answered afresh after any change.
CUT_BOUND = frozenset({"slice", "exceptions"})


def parse_cut(cut: str) -> dict[str, str]:
    """Parse ``"dim:value|dim2:value2"`` into a constraints mapping.

    Raises :class:`~repro.errors.ServeError` on empty parts, a missing
    ``:``, or the same dimension named twice (the algebra has no useful
    meaning for conflicting point constraints on one dimension).
    """
    dims: dict[str, str] = {}
    if not cut:
        return dims
    for part in cut.split(CUT_SEPARATOR):
        name, separator, value = part.partition(VALUE_SEPARATOR)
        name = name.strip()
        value = value.strip()
        if not separator or not name or not value:
            raise ServeError(
                f"bad cut element {part!r}; expected dimension:value"
            )
        if name in dims:
            raise ServeError(f"dimension {name!r} appears twice in the cut")
        dims[name] = value
    return dims


def format_cut(dims: Mapping[str, str] | Iterable[tuple[str, str]]) -> str:
    """The canonical cut string for constraints (a mapping or pairs)."""
    return CUT_SEPARATOR.join(
        f"{name}{VALUE_SEPARATOR}{value}"
        for name, value in sorted(dict(dims).items())
    )


def _flag(value: object) -> bool:
    if isinstance(value, str):
        return value.lower() in ("1", "true", "yes")
    return bool(value)


@dataclass(frozen=True)
class Plan:
    """One request against a flowcube: hashable, comparable, printable.

    Attributes:
        op: One of :data:`OPS`.
        dims: The ``(dimension, concept)`` constraints, sorted by name.
        path_level: Path-lattice index; ``None`` is the most detailed level.
        dimension: The dimension a roll-up / drill-down moves along.
        derive: Answer coordinates whose cuboid was not materialised
            through the roll-up planner instead of failing.
        measure: Render each cell's flowgraph, not only its index fields.
    """

    op: str
    dims: tuple[tuple[str, str], ...] = ()
    path_level: int | None = None
    dimension: str | None = None
    derive: bool = False
    measure: bool = False

    #: The canonical request key: equal plans, equal cached bytes.
    key = property(
        attrgetter("op", "dims", "path_level", "dimension", "derive", "measure")
    )

    @classmethod
    def parse(
        cls, op: str, params: Mapping[str, object], pairs: Sequence[str] = ()
    ) -> "Plan":
        """Build the plan for *op* from request parameters.

        *params* holds the wire spellings (query string and JSON body, or
        the same keys from Python): ``cut``, ``dims`` (merged over the
        cut), ``path_level``, ``dimension``, ``derive``, ``measure``;
        other keys are ignored.  *pairs* are command-line ``NAME=VALUE``
        constraints, merged last.  Raises :class:`~repro.errors.ServeError`
        on a parameter of the wrong type or shape; what the cube holds is
        checked when the plan runs.
        """
        reads = OPS[op]
        cut = params.get("cut") or ""
        if not isinstance(cut, str):
            raise ServeError(f'"cut" must be a string, got {cut!r}')
        extra = params.get("dims", {})
        if not isinstance(extra, dict) or not all(
            isinstance(value, str) for value in extra.values()
        ):
            raise ServeError(
                '"dims" must be an object of dimension:value strings'
            )
        dims = {**parse_cut(cut), **extra}
        for pair in pairs:
            name, separator, value = pair.partition("=")
            if not separator or not name or not value:
                raise ServeError(
                    f"bad -d constraint {pair!r}; expected NAME=VALUE"
                )
            dims[name] = value
        level = params.get("path_level")
        if level in (None, ""):
            level = None
        else:
            try:
                if isinstance(level, bool) or not isinstance(level, (int, str)):
                    raise ValueError
                level = int(level)
            except ValueError:
                raise ServeError(
                    f"bad path_level {level!r}; expected an integer"
                ) from None
        dimension = None
        if "dimension" in reads:
            dimension = params.get("dimension")
            if not dimension or not isinstance(dimension, str):
                raise ServeError(f'{op} needs a "dimension" name to move along')
        return cls(
            op,
            tuple(sorted(dims.items())),
            level,
            dimension,
            "derive" in reads and _flag(params.get("derive")),
            "measure" in reads and _flag(params.get("measure")),
        )

    def run(self, query):
        """Execute on a :class:`~repro.query.api.FlowCubeQuery`.

        ``slice`` / ``exceptions`` give the matching cells, ``cell`` /
        ``rollup`` one cell, ``drilldown`` the child cells, ``flowgraph``
        the measure.  Raises :class:`~repro.errors.QueryError` when the
        cube has no such path level, concept or cell.
        """
        level = None
        if self.path_level is not None:
            lattice = query.cube.path_lattice
            if lattice is None or not 0 <= self.path_level < len(lattice):
                raise QueryError(f"no path level {self.path_level} in the cube")
            level = lattice[self.path_level]
        dims = dict(self.dims)
        if self.op in ("slice", "exceptions"):
            return query.slice_cells(level, **dims)
        if self.derive:
            query = query.deriving()
        if self.op == "flowgraph":
            return query.flowgraph(level, **dims)
        cell = query.cell(level, **dims)
        if self.op == "rollup":
            return query.roll_up(cell, self.dimension)
        if self.op == "drilldown":
            return query.drill_down(cell, self.dimension)
        return cell
