"""Runners regenerating each subfigure of Fig. 8 (Section VII).

Every runner measures the path the engine serves: a dataset is frozen
once into a snapshot and its views are materialized on it
(:mod:`~repro.bench.workloads`), so Match/BMatch run the snapshot
kernels and (B)MatchJoin sweeps the extensions' id rows.  Timing
methodology (as in the paper): the (B)MatchJoin series time the
*evaluation* from materialized extensions; view selection (containment
analysis) is the subject of Exp-3 (Fig. 8(g)/(h)) and is measured
there.  Every runner returns a :class:`~repro.bench.reporting.Table`
whose columns mirror the figure's series.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.bench import workloads
from repro.bench.reporting import Table, timed
from repro.core.bounded.bminimal import bounded_minimal_views
from repro.core.bounded.bminimum import bounded_minimum_views
from repro.core.bounded.bmatchjoin import bounded_match_join
from repro.core.containment import contains
from repro.core.matchjoin import match_join
from repro.core.minimal import minimal_views
from repro.core.minimum import minimum_views
from repro.datasets import generate_views, query_from_views, random_query
from repro.graph.pattern import BoundedPattern
from repro.simulation import bounded_match, match

_LABELS = tuple(f"l{i}" for i in range(10))

#: Best-of repeats of every timed (B)Match / (B)MatchJoin call.
REPEAT = 2


def _ms(fn, *args, **kwargs) -> float:
    """Milliseconds of the best of :data:`REPEAT` calls (joins on the
    id path take well under a millisecond)."""
    return timed(fn, *args, repeat=REPEAT, **kwargs) * 1000

#: Per query kind: (direct, join, the minimal and minimum selections).
_PLAIN = (match, match_join, minimal_views, minimum_views)
_BOUNDED = (
    bounded_match, bounded_match_join, bounded_minimal_views, bounded_minimum_views,
)

_SIZE_NOTES = (
    "Expected shape: MatchJoin_min <= MatchJoin_mnl < Match at every "
    "size; all grow with |Qs|, the view-based curves more slowly.",
    "Expected shape: BMatchJoin well under BMatch everywhere (paper: "
    "~10-14% of its time on Amazon), with the gap growing with pattern "
    "size; BMatchJoin_min <= BMatchJoin_mnl.",
)


def _fmt_size(size: Tuple[int, int], bound=None) -> str:
    if bound is None:
        return f"({size[0]},{size[1]})"
    return f"({size[0]},{size[1]},{bound})"


def _row(query, graph, views) -> Tuple[float, float, float, int]:
    """One Fig. 8 row: milliseconds of Match (BMatch) on the snapshot and of
    (B)MatchJoin over the minimal and minimum selections, then |result|.

    Asserts Theorem 1 (Theorem 8 for bounded queries) once: both joins
    equal the direct answer, whose size is the last column."""
    direct, join, minimal, minimum = (
        _BOUNDED if isinstance(query, BoundedPattern) else _PLAIN
    )
    answer = direct(query, graph)
    selections = (minimal(query, views), minimum(query, views))
    assert all(
        join(query, selection, views).edge_matches == answer.edge_matches
        for selection in selections
    ), f"MatchJoin differs from the direct answer on {query!r}"
    t_direct = _ms(direct, query, graph)
    t_mnl, t_min = (_ms(join, query, selection, views) for selection in selections)
    return t_direct, t_mnl, t_min, answer.result_size


def _table(exp, title, axis, notes, cases, require_dag=False) -> Table:
    """A table of :func:`_row`s, one per case ``(x, (graph, views), (n, m))``
    on a picked ``(n, m)`` query.

    The notes end with how many rows bear out the two claims every such
    figure makes, so a claim that fails on this run is stated beside
    the numbers."""
    rows = []
    for x, (graph, views), (n, m) in cases:
        query = workloads.pick_query(views, n, m, graph=graph, require_dag=require_dag)
        rows.append((x, *_row(query, graph, views)))
    b = "B" if isinstance(query, BoundedPattern) else ""
    faster = sum(row[3] < row[1] for row in rows)
    smaller = sum(row[3] <= row[2] for row in rows)
    return Table(
        exp, title,
        [axis, f"{b}Match (ms)", f"{b}MatchJoin_mnl (ms)", f"{b}MatchJoin_min (ms)",
         "|result|"],
        rows,
        notes=f"{notes}\n\nMeasured: {b}MatchJoin_min < {b}Match in {faster} "
              f"of {len(rows)} rows; {b}MatchJoin_min <= {b}MatchJoin_mnl in "
              f"{smaller} of {len(rows)}.",
    )


# ----------------------------------------------------------------------
# Exp-1 / Exp-4: (B)MatchJoin on the real-dataset stand-ins
# (Fig. 8(a)-(c), (i), (j))
# ----------------------------------------------------------------------
def _sizes_table(exp, title, dataset, sizes, require_dag, bound=None) -> Table:
    return _table(
        exp, title, "|Qs|" if bound is None else "|Qb|",
        _SIZE_NOTES[bound is not None],
        [(_fmt_size(size, bound), dataset, size) for size in sizes],
        require_dag,
    )


def exp_fig8a(scale: float = 1.0) -> Table:
    return _sizes_table(
        "Fig. 8(a)", "Varying |Qs| (Amazon)", workloads.dataset("amazon", scale),
        workloads.AMAZON_SIZES, False,
    )


def exp_fig8b(scale: float = 1.0) -> Table:
    return _sizes_table(
        "Fig. 8(b)", "Varying |Qs| (Citation)", workloads.dataset("citation", scale),
        workloads.CITATION_SIZES, True,
    )


def exp_fig8c(scale: float = 1.0) -> Table:
    return _sizes_table(
        "Fig. 8(c)", "Varying |Qs| (Youtube)", workloads.dataset("youtube", scale),
        workloads.YOUTUBE_SIZES, False,
    )


def exp_fig8i(scale: float = 1.0) -> Table:
    return _sizes_table(
        "Fig. 8(i)", "Varying |Qb| (Amazon, fe=2)",
        workloads.bounded_dataset("amazon", 2, scale),
        workloads.AMAZON_SIZES, False, bound=2,
    )


def exp_fig8j(scale: float = 1.0) -> Table:
    return _sizes_table(
        "Fig. 8(j)", "Varying |Qb| (Citation, fe=3)",
        workloads.bounded_dataset("citation", 3, scale),
        workloads.CITATION_SIZES, True, bound=3,
    )


# ----------------------------------------------------------------------
# Exp-1 scalability (Fig. 8(d), (e))
# ----------------------------------------------------------------------
def _synthetic_sweep(scale: float):
    base = [3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000]
    return [max(500, int(n * scale)) for n in base]


def exp_fig8d(scale: float = 1.0) -> Table:
    return _table(
        "Fig. 8(d)", "Varying |G| (synthetic), pattern (4,6)", "|V|",
        "Expected shape: all grow ~linearly with |G|; MatchJoin_min "
        "scales best (the paper reports it at ~49% of MatchJoin_mnl).",
        [(n, workloads.synthetic(n), (4, 6)) for n in _synthetic_sweep(scale)],
    )


def exp_fig8e(scale: float = 1.0) -> Table:
    table = Table(
        "Fig. 8(e)", "Varying |G| and |Qs| (synthetic), MatchJoin_min (ms)",
        ["|V|", "Q1 (4,8)", "Q2 (5,10)", "Q3 (6,12)", "Q4 (7,14)"],
        notes="Expected shape: larger patterns cost more at every |G|; "
              "each series grows with |G|.",
    )
    pattern_sizes = [(4, 8), (5, 10), (6, 12), (7, 14)]
    for num_nodes in _synthetic_sweep(scale):
        graph, views = workloads.synthetic(num_nodes)
        row = [num_nodes]
        for size in pattern_sizes:
            query = workloads.pick_query(views, size[0], size[1], graph=graph)
            minimum = minimum_views(query, views)
            row.append(_ms(match_join, query, minimum, views))
        table.add_row(*row)
    return table


# ----------------------------------------------------------------------
# Exp-2: the rank optimization (Fig. 8(f))
# ----------------------------------------------------------------------
def exp_fig8f(scale: float = 1.0) -> Table:
    num_nodes = max(500, int(3000 * scale))
    table = Table(
        "Fig. 8(f)", f"Varying alpha (densification, |V|={num_nodes})",
        ["alpha", "MatchJoin_nopt (ms)", "MatchJoin_min (ms)"],
        notes="Expected shape: the rank-ordered engine wins everywhere and "
              "the gap widens as the graph densifies (paper: optimized is "
              "~54% of nopt on average, improving with alpha).",
    )
    for alpha in (1.0, 1.05, 1.1, 1.15, 1.2, 1.25):
        graph, views = workloads.densification(num_nodes, alpha)
        query = workloads.pick_query(views, 4, 6, graph=graph)
        minimum = minimum_views(query, views)
        table.add_row(
            alpha,
            _ms(match_join, query, minimum, views, optimized=False),
            _ms(match_join, query, minimum, views),
        )
    return table


# ----------------------------------------------------------------------
# Exp-3: containment analysis (Fig. 8(g), (h))
# ----------------------------------------------------------------------
def exp_fig8g(scale: float = 1.0) -> Table:
    views = generate_views(_LABELS, 22, seed=17)
    table = Table(
        "Fig. 8(g)", "Containment checking time, DAG vs cyclic patterns",
        ["|Qs|", "contain QDAG (ms)", "contain QCyclic (ms)"],
        notes="Expected shape: milliseconds throughout (the paper reports "
              "<= 39ms at (10,20)); cyclic patterns cost no less than DAGs "
              "of equal size.",
    )
    repeats = 5
    for size in workloads.CONTAINMENT_SIZES:
        dag_total = cyc_total = 0.0
        for seed in range(repeats):
            dag = random_query(size[0], size[1], _LABELS, seed=seed, cyclic=False)
            cyc = random_query(size[0], size[1], _LABELS, seed=seed, cyclic=True)
            dag_total += timed(contains, dag, views)
            cyc_total += timed(contains, cyc, views)
        table.add_row(
            _fmt_size(size),
            dag_total / repeats * 1000,
            cyc_total / repeats * 1000,
        )
    return table


def exp_fig8h(scale: float = 1.0) -> Table:
    # A suite with coverage overlap (small views first, big composites
    # last) -- without overlap both algorithms trivially pick the same
    # subset and R2 pins to 1.  See workloads.overlapping_views.
    views, composites = workloads.overlapping_views()
    table = Table(
        "Fig. 8(h)", "minimum vs minimal on cyclic patterns",
        ["|Qs|", "R1 = T(minimum)/T(minimal)", "R2 = card(minimum)/card(minimal)"],
        notes="Expected shape: R1 near 1 (minimum may cost up to ~120% of "
              "minimal); R2 well below 1 (paper: minimum finds subsets "
              "40-55% the size of minimal's).",
    )
    repeats = 5
    for size in workloads.CONTAINMENT_SIZES:
        t_min = t_mnl = 0.0
        card_min = card_mnl = 0
        for seed in range(repeats):
            query = query_from_views(composites, size[0], size[1], seed=seed)
            t_mnl += timed(minimal_views, query, views)
            t_min += timed(minimum_views, query, views)
            card_mnl += len(minimal_views(query, views).views_used())
            card_min += len(minimum_views(query, views).views_used())
        table.add_row(
            _fmt_size(size),
            t_min / t_mnl if t_mnl else float("nan"),
            card_min / card_mnl if card_mnl else float("nan"),
        )
    return table


# ----------------------------------------------------------------------
# Exp-4: bounded pattern queries (Fig. 8(k), (l); (i), (j) are above)
# ----------------------------------------------------------------------
def exp_fig8k(scale: float = 1.0) -> Table:
    # Materializing each bound's views and BMatch at fe = 5, 6 are the
    # costly part (~17 s and ~24 s at full scale), so this figure runs
    # on a half-size YouTube graph.
    return _table(
        "Fig. 8(k)", "Varying fe(e) (Youtube), pattern (4,8)", "fe(e)",
        "Expected shape: BMatch grows steeply with the bound (deeper "
        "BFS); BMatchJoin stays near-flat (paper: 3% of BMatch at "
        "fe=3).",
        [
            (bound, workloads.bounded_dataset("youtube", bound, scale * 0.5), (4, 8))
            for bound in (2, 3, 4, 5, 6)
        ],
    )


def exp_fig8l(scale: float = 1.0) -> Table:
    return _table(
        "Fig. 8(l)", "Varying |G| (synthetic, bounded fe=3), pattern (4,6)",
        "|V|",
        "Expected shape: BMatchJoin_min scales best and stays a small "
        "fraction of BMatch (paper: ~6%), with the gap growing with |G|.",
        [(n, workloads.synthetic_bounded(n, 3), (4, 6)) for n in _synthetic_sweep(scale)],
    )


# ----------------------------------------------------------------------
# Summary statistics (Exp-1/Exp-4 narrative numbers)
# ----------------------------------------------------------------------
def exp_summary(scale: float = 1.0) -> Table:
    table = Table(
        "Summary", "View cache statistics and overall savings",
        ["dataset", "|V(G)|/|G|", "views used (min)", "MatchJoin_min/Match", "|result|"],
        notes="Paper reference points: view extensions at 14.4% (Amazon), "
              "12% (Citation), 4% (YouTube) of the data; 3-6 views used per "
              "YouTube query; simulation matching via views saves >= 51%.",
    )
    for name, dag in (("amazon", False), ("citation", True), ("youtube", False)):
        graph, views = workloads.dataset(name, scale)
        query = workloads.pick_query(views, 6, 9, graph=graph, require_dag=dag)
        t_match, _, t_min, size = _row(query, graph, views)
        table.add_row(
            name,
            views.extension_fraction(graph),
            len(minimum_views(query, views).views_used()),
            t_min / t_match if t_match else float("nan"),
            size,
        )
    return table


#: Every subfigure of Fig. 8 plus the summary, by id: what run_all runs.
EXPERIMENTS: Dict[str, Callable[[float], Table]] = {
    "fig8a": exp_fig8a,
    "fig8b": exp_fig8b,
    "fig8c": exp_fig8c,
    "fig8d": exp_fig8d,
    "fig8e": exp_fig8e,
    "fig8f": exp_fig8f,
    "fig8g": exp_fig8g,
    "fig8h": exp_fig8h,
    "fig8i": exp_fig8i,
    "fig8j": exp_fig8j,
    "fig8k": exp_fig8k,
    "fig8l": exp_fig8l,
    "summary": exp_summary,
}
