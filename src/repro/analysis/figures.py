"""One-call regeneration of each paper artifact (backs the CLI).

Every experiment is split into a *data* function returning a
JSON-serialisable dict (``run_experiment_data``) and a generic renderer
that turns that dict into the reproduced table/figure as an ASCII string
(``run_experiment``). The benchmark suite under ``benchmarks/`` is the
asserted, recorded version of the same experiments; these entry points
exist for interactive use::

    python -m repro fig3a
    python -m repro table5 fig7 --json

Data documents come in two kinds:

* ``{"kind": "table", "title", "headers", "rows"}``
* ``{"kind": "figure", "title", "x_label", "x", "series"}`` with an
  optional ``"footer"`` table — rendered as a series table plus an
  ASCII chart.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.calibration import estimate_best_group_sizes
from repro.analysis.experiments import (
    TECHNIQUES,
    binary_sweep_grid,
    measure_binary_search,
    measure_query,
    size_grid,
    lookups_per_point,
)
from repro.analysis.loc import table5_metrics
from repro.analysis.reporting import ascii_chart, format_pct, format_size, format_table, series_table
from repro.perf import default_runner
from repro.sim.memory import HIT_LEVELS
from repro.sim.tmam import CATEGORIES

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "run_experiment_data",
    "render_experiment_data",
    "available_experiments",
]


def _table_doc(title: str, headers: list, rows: list) -> dict:
    return {"kind": "table", "title": title, "headers": headers, "rows": rows}


def _figure_doc(
    title: str, x_label: str, x: list, series: dict, footer: dict | None = None
) -> dict:
    doc = {
        "kind": "figure",
        "title": title,
        "x_label": x_label,
        "x": list(x),
        "series": series,
    }
    if footer is not None:
        doc["footer"] = footer
    return doc


def render_experiment_data(doc: dict) -> str:
    """Render a data document as the paper-style ASCII artifact."""
    if doc["kind"] == "table":
        return format_table(doc["headers"], doc["rows"], title=doc["title"])
    text = (
        series_table(
            doc["x_label"], doc["x"], doc["series"], title=doc["title"]
        )
        + "\n\n"
        + ascii_chart(doc["x"], doc["series"])
    )
    footer = doc.get("footer")
    if footer is not None:
        text += "\n" + format_table(footer["headers"], footer["rows"])
    return text


def _binary_sweep(element: str, sort_lookups: bool = False) -> tuple[list, dict]:
    # Every (technique, size) point is independent, so the whole grid
    # goes through the sweep runner in one call; results come back in
    # grid order, which keeps the regrouped dict identical to the old
    # nested loops regardless of the job count.
    sizes = size_grid()
    grid = binary_sweep_grid(sizes)
    results = default_runner().map(
        measure_binary_search,
        grid,
        common={
            "element": element,
            "n_lookups": lookups_per_point(),
            "sort_lookups": sort_lookups,
            "warm_with_same_values": sort_lookups,
        },
    )
    points: dict[str, list] = {technique: [] for technique in TECHNIQUES}
    for spec, point in zip(grid, results):
        points[spec["technique"]].append(point)
    return sizes, points


def _query_grid_sweep(combos: list[tuple[str, str]], sizes: list[int]) -> dict:
    """Sweep ``measure_query`` over (store, strategy) x sizes, grouped."""
    grid = [
        {"dict_bytes": size, "store": store, "strategy": strategy}
        for store, strategy in combos
        for size in sizes
    ]
    results = default_runner().map(
        measure_query, grid, common={"n_predicates": lookups_per_point()}
    )
    per_combo = {}
    for combo, start in zip(combos, range(0, len(grid), len(sizes))):
        per_combo[combo] = results[start : start + len(sizes)]
    return per_combo


def fig1_data() -> dict:
    sizes = size_grid()
    n = lookups_per_point()
    sweep = _query_grid_sweep(
        [("main", "sequential"), ("main", "interleaved")], sizes
    )
    series = {
        label: [round(q.response_ms, 2) for q in sweep[("main", strategy)]]
        for strategy, label in (
            ("sequential", "Main"),
            ("interleaved", "Main-Interleaved"),
        )
    }
    return _figure_doc(
        f"Figure 1: IN-predicate response time (ms), {n} INTEGER values",
        "dict size",
        [format_size(s) for s in sizes],
        series,
    )


def _fig3_data(element: str) -> dict:
    sizes, points = _binary_sweep(element)
    series = {
        technique: [round(p.cycles_per_search) for p in column]
        for technique, column in points.items()
    }
    return _figure_doc(
        f"Figure 3 ({element} arrays): cycles/search",
        "size",
        [format_size(s) for s in sizes],
        series,
    )


def fig3a_data() -> dict:
    return _fig3_data("int")


def fig3b_data() -> dict:
    return _fig3_data("string")


def fig5_data() -> dict:
    sizes, points = _binary_sweep("int")
    rows = []
    for technique, column in points.items():
        for point in column:
            cats = point.cycles_by_category_per_search
            rows.append(
                [technique, format_size(point.size_bytes)]
                + [round(cats[c]) for c in CATEGORIES]
            )
    return _table_doc(
        "Figure 5: cycles/search by TMAM category",
        ["technique", "size", *CATEGORIES],
        rows,
    )


def fig6_data() -> dict:
    sizes, points = _binary_sweep("int")
    rows = []
    for technique, column in points.items():
        for point in column:
            rows.append(
                [technique, format_size(point.size_bytes)]
                + [round(point.loads_per_search[level], 1) for level in HIT_LEVELS]
            )
    return _table_doc(
        "Figure 6: loads/search by serving level",
        ["technique", "size", *HIT_LEVELS],
        rows,
    )


def fig7_data() -> dict:
    groups = list(range(1, 13))
    n = min(lookups_per_point(), 400)
    techniques = ("GP", "AMAC", "CORO")
    grid = [
        {"size_bytes": 256 << 20, "technique": technique, "group_size": g}
        for technique in techniques
        for g in groups
    ]
    results = default_runner().map(
        measure_binary_search,
        grid,
        common={"n_lookups": n},
    )
    curves = {
        technique: [
            round(p.cycles_per_search)
            for p in results[i * len(groups) : (i + 1) * len(groups)]
        ]
        for i, technique in enumerate(techniques)
    }
    estimates = estimate_best_group_sizes(size_bytes=256 << 20, n_lookups=n)
    footer = {
        "headers": ["technique", "estimated G*", "measured best G"],
        "rows": [
            [t, estimates[t].estimate, groups[c.index(min(c))]]
            for t, c in curves.items()
        ],
    }
    return _figure_doc(
        "Figure 7: cycles/search vs group size (256 MB int array)",
        "G",
        groups,
        curves,
        footer=footer,
    )


def fig8_data() -> dict:
    sizes = size_grid()
    combos = [
        (store, strategy)
        for store in ("main", "delta")
        for strategy in ("sequential", "interleaved")
    ]
    sweep = _query_grid_sweep(combos, sizes)
    series = {}
    for store, strategy in combos:
        label = store.capitalize() + (
            "-Interleaved" if strategy == "interleaved" else ""
        )
        series[label] = [
            round(q.response_ms, 2) for q in sweep[(store, strategy)]
        ]
    return _figure_doc(
        "Figure 8: IN-predicate response time (ms), Main & Delta",
        "dict size",
        [format_size(s) for s in sizes],
        series,
    )


def table1_data() -> dict:
    sizes = size_grid()
    endpoints = [sizes[0], sizes[-1]]
    sweep = _query_grid_sweep(
        [("main", "sequential"), ("delta", "sequential")], endpoints
    )
    cells = {store: sweep[(store, "sequential")] for store in ("main", "delta")}
    labels = [format_size(sizes[0]), format_size(sizes[-1])]
    return _table_doc(
        "Table 1: execution details of locate",
        ["", f"Main {labels[0]}", f"Main {labels[1]}",
         f"Delta {labels[0]}", f"Delta {labels[1]}"],
        [
            ["Runtime %"]
            + [format_pct(q.locate_fraction) for q in cells["main"] + cells["delta"]],
            ["CPI"]
            + [f"{q.locate_tmam.cpi:.1f}" for q in cells["main"] + cells["delta"]],
        ],
    )


def table2_data() -> dict:
    sizes = size_grid()
    endpoints = [sizes[0], sizes[-1]]
    # Same four points as table1 — with the result cache attached they
    # replay instead of re-simulating.
    sweep = _query_grid_sweep(
        [("main", "sequential"), ("delta", "sequential")], endpoints
    )
    columns = []
    headers = [""]
    for store in ("main", "delta"):
        for size, point in zip(endpoints, sweep[(store, "sequential")]):
            columns.append(point.locate_tmam.breakdown())
            headers.append(f"{store.capitalize()} {format_size(size)}")
    rows = [
        [category] + [format_pct(col[category]) for col in columns]
        for category in CATEGORIES
    ]
    return _table_doc("Table 2: pipeline slots of locate", headers, rows)


def table5_data() -> dict:
    return _table_doc(
        "Table 5: LoC metrics over this repository's implementations",
        ["technique", "interleaved LoC", "diff-to-original", "total footprint"],
        [
            [m.technique, m.interleaved_loc, m.diff_to_original, m.total_footprint]
            for m in table5_metrics()
        ],
    )


EXPERIMENTS: dict[str, Callable[[], dict]] = {
    "fig1": fig1_data,
    "fig3a": fig3a_data,
    "fig3b": fig3b_data,
    "fig5": fig5_data,
    "fig6": fig6_data,
    "fig7": fig7_data,
    "fig8": fig8_data,
    "table1": table1_data,
    "table2": table2_data,
    "table5": table5_data,
}


def available_experiments() -> list[str]:
    return sorted(EXPERIMENTS)


def run_experiment_data(name: str) -> dict:
    """Run ``name`` and return its machine-readable data document."""
    try:
        experiment = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(available_experiments())}"
        ) from None
    doc = experiment()
    doc["experiment"] = name
    return doc


def run_experiment(name: str) -> str:
    """Run ``name`` and return the rendered ASCII table/figure."""
    return render_experiment_data(run_experiment_data(name))
