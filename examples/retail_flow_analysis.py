"""Retail commodity-flow analysis on a synthetic nationwide deployment.

The scenario from the paper's introduction: a retailer tracking items from
factories through distribution to stores wants multi-dimensional answers —
typical paths per product segment, lead-time outliers, and how much the
flow of one segment deviates from its parent category (redundancy analysis).

Run:  python examples/retail_flow_analysis.py
"""

from repro.core import ItemLevel, prune_redundant, tv_similarity
from repro.query import FlowCubeQuery, lead_time_deviations, typical_paths
from repro.synth import GeneratorConfig, generate_path_database


def main() -> None:
    # A synthetic retail operation: 2,000 tracked items, 3 item dimensions
    # (think product / brand / supplier), 4 location areas.
    config = GeneratorConfig(
        n_paths=2000,
        n_dims=3,
        dim_fanouts=(3, 3, 4),
        dim_skew=0.9,
        n_location_groups=4,
        locations_per_group=4,
        n_sequences=25,
        max_duration=12,
        seed=2026,
    )
    db = generate_path_database(config)
    print(f"Generated {len(db)} paths; {db.describe()}")

    # Materialise only the levels a retail analyst uses: category overview
    # down to (product-line, brand) detail — a partial materialisation plan.
    from repro.core import plan_between_layers

    plan = plan_between_layers(
        minimum_layer=ItemLevel((1, 0, 0)),
        observation_layer=ItemLevel((2, 1, 0)),
    )
    cube = plan.build(db, min_support=0.01, min_deviation=0.15)
    print(f"Cube: {cube.describe()}")

    query = FlowCubeQuery(cube)
    category = db.schema.dimensions[0].concepts_at_level(1)[0]

    print(f"\n--- Typical paths for category {category!r} ---")
    graph = query.flowgraph(d0=category)
    for route in typical_paths(graph, top_k=3):
        print(
            f"  p={route.probability:.2f}  lead≈{route.expected_lead_time:.1f}  "
            + " → ".join(route.locations)
        )

    print(f"\n--- Lead-time outliers within {category!r} ---")
    cell = query.cell(d0=category)
    outliers = lead_time_deviations(cell.flowgraph, list(cell.paths), z_threshold=2.5)
    print(f"  {len(outliers)} outlier paths (|z| >= 2.5); worst 3:")
    for path, z in outliers[:3]:
        total = sum(float(d) for _, d in path)
        print(f"    z={z:+.1f} total={total:.0f}  " + " → ".join(l for l, _ in path))

    print("\n--- Exceptions recorded in this cell ---")
    for exception in cell.flowgraph.exceptions[:5]:
        print(f"  {exception}")
    if not cell.flowgraph.exceptions:
        print("  (none above ε at this δ)")

    print("\n--- Redundancy compression ---")
    total = cube.n_cells()
    marked = prune_redundant(cube, threshold=0.9, metric=tv_similarity)
    print(
        f"  {marked} of {total} cells are redundant given their parents "
        f"({100 * marked / total:.0f}% saved by the non-redundant flowcube)"
    )
    survivors = [
        cell for cell in cube.cells()
        if not cell.redundant and sum(cell.item_level.levels) > 1
    ]
    survivors.sort(key=lambda c: -c.n_paths)
    print("  Most significant non-redundant segments (drill-down targets):")
    for cell in survivors[:5]:
        print(f"    {cell.key}  n={cell.n_paths}")


if __name__ == "__main__":
    main()
