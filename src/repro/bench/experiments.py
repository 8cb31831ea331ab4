"""Runners regenerating each subfigure of Fig. 8 (Section VII).

Timing methodology (as in the paper): the (B)MatchJoin series time the
*evaluation* from materialized extensions; view selection (containment
analysis) is the subject of Exp-3 (Fig. 8(g)/(h)) and is measured
there.  Match/BMatch evaluate directly on ``G``.  Every runner returns
a :class:`~repro.bench.reporting.Table` whose columns mirror the
figure's series.
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
from repro.simulation import bounded_match, match

_LABELS = tuple(f"l{i}" for i in range(10))


def _fmt_size(size: Tuple[int, int], bound=None) -> str:
    if bound is None:
        return f"({size[0]},{size[1]})"
    return f"({size[0]},{size[1]},{bound})"


# ----------------------------------------------------------------------
# Exp-1: MatchJoin on the real-dataset stand-ins (Fig. 8(a)-(c))
# ----------------------------------------------------------------------
def _matchjoin_table(exp: str, title: str, dataset, sizes, require_dag, tag, scale):
    graph, views = dataset(scale)
    table = Table(
        exp, title,
        ["|Qs|", "Match (s)", "MatchJoin_mnl (s)", "MatchJoin_min (s)", "|result|"],
        notes="Expected shape: MatchJoin_min <= MatchJoin_mnl < Match at "
              "every size; all grow with |Qs|, the view-based curves more "
              "slowly.",
    )
    for size, query in workloads.query_suite(
        views, sizes, graph=graph, require_dag=require_dag, tag=tag
    ):
        minimal = minimal_views(query, views)
        minimum = minimum_views(query, views)
        t_match = timed(match, query, graph, repeat=2)
        t_mnl = timed(match_join, query, minimal, views, repeat=2)
        t_min = timed(match_join, query, minimum, views, repeat=2)
        result = match(query, graph)
        table.add_row(_fmt_size(size), t_match, t_mnl, t_min, result.result_size)
    return table


def exp_fig8a(scale: float = 1.0) -> Table:
    return _matchjoin_table(
        "Fig. 8(a)", "Varying |Qs| (Amazon)", workloads.amazon,
        workloads.AMAZON_SIZES, False, "amazon", scale,
    )


def exp_fig8b(scale: float = 1.0) -> Table:
    return _matchjoin_table(
        "Fig. 8(b)", "Varying |Qs| (Citation)", workloads.citation,
        workloads.CITATION_SIZES, True, "citation", scale,
    )


def exp_fig8c(scale: float = 1.0) -> Table:
    return _matchjoin_table(
        "Fig. 8(c)", "Varying |Qs| (Youtube)", workloads.youtube,
        workloads.YOUTUBE_SIZES, False, "youtube", scale,
    )


# ----------------------------------------------------------------------
# Exp-1 scalability (Fig. 8(d), (e))
# ----------------------------------------------------------------------
def _synthetic_sweep(scale: float):
    base = [3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000]
    return [max(500, int(n * scale)) for n in base]


def exp_fig8d(scale: float = 1.0) -> Table:
    table = Table(
        "Fig. 8(d)", "Varying |G| (synthetic), pattern (4,6)",
        ["|V|", "Match (s)", "MatchJoin_mnl (s)", "MatchJoin_min (s)"],
        notes="Expected shape: all grow ~linearly with |G|; MatchJoin_min "
              "scales best (the paper reports it at ~49% of MatchJoin_mnl).",
    )
    for num_nodes in _synthetic_sweep(scale):
        graph, views = workloads.synthetic(num_nodes)
        query = workloads.pick_query(
            views, 4, 6, graph=graph, tag=f"syn{num_nodes}"
        )
        minimal = minimal_views(query, views)
        minimum = minimum_views(query, views)
        table.add_row(
            num_nodes,
            timed(match, query, graph, repeat=2),
            timed(match_join, query, minimal, views, repeat=2),
            timed(match_join, query, minimum, views, repeat=2),
        )
    return table


def exp_fig8e(scale: float = 1.0) -> Table:
    table = Table(
        "Fig. 8(e)", "Varying |G| and |Qs| (synthetic), MatchJoin_min",
        ["|V|", "Q1 (4,8)", "Q2 (5,10)", "Q3 (6,12)", "Q4 (7,14)"],
        notes="Expected shape: larger patterns cost more at every |G|; "
              "each series grows with |G|.",
    )
    pattern_sizes = [(4, 8), (5, 10), (6, 12), (7, 14)]
    for num_nodes in _synthetic_sweep(scale):
        graph, views = workloads.synthetic(num_nodes)
        row = [num_nodes]
        for size in pattern_sizes:
            query = workloads.pick_query(
                views, size[0], size[1], graph=graph, tag=f"syn{num_nodes}"
            )
            minimum = minimum_views(query, views)
            row.append(timed(match_join, query, minimum, views, repeat=2))
        table.add_row(*row)
    return table


# ----------------------------------------------------------------------
# Exp-2: the rank optimization (Fig. 8(f))
# ----------------------------------------------------------------------
def exp_fig8f(scale: float = 1.0) -> Table:
    num_nodes = max(500, int(3000 * scale))
    table = Table(
        "Fig. 8(f)", f"Varying alpha (densification, |V|={num_nodes})",
        ["alpha", "MatchJoin_nopt (s)", "MatchJoin_min (s)"],
        notes="Expected shape: the rank-ordered engine wins everywhere and "
              "the gap widens as the graph densifies (paper: optimized is "
              "~54% of nopt on average, improving with alpha).",
    )
    for alpha in (1.0, 1.05, 1.1, 1.15, 1.2, 1.25):
        graph, views = workloads.densification(num_nodes, alpha)
        query = workloads.pick_query(
            views, 4, 6, graph=graph, tag=f"dens{num_nodes}:{alpha}"
        )
        minimum = minimum_views(query, views)
        t_nopt = timed(match_join, query, minimum, views, optimized=False, repeat=3)
        t_opt = timed(match_join, query, minimum, views, optimized=True, repeat=3)
        table.add_row(alpha, t_nopt, t_opt)
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
# Exp-4: bounded pattern queries (Fig. 8(i)-(l))
# ----------------------------------------------------------------------
def _bounded_table(exp, title, dataset_name, bound, sizes, require_dag, scale):
    graph, views = workloads.bounded_dataset(dataset_name, bound, scale)
    table = Table(
        exp, title,
        ["|Qb|", "BMatch (s)", "BMatchJoin_mnl (s)", "BMatchJoin_min (s)", "|result|"],
        notes="Expected shape: BMatchJoin well under BMatch everywhere "
              "(paper: ~10-14% of its time on Amazon), with the gap growing "
              "with pattern size; BMatchJoin_min <= BMatchJoin_mnl.",
    )
    for size, query in workloads.query_suite(
        views, sizes, graph=graph, require_dag=require_dag,
        tag=f"{dataset_name}@{bound}",
    ):
        minimal = bounded_minimal_views(query, views)
        minimum = bounded_minimum_views(query, views)
        t_bmatch = timed(bounded_match, query, graph)
        t_mnl = timed(bounded_match_join, query, minimal, views, repeat=2)
        t_min = timed(bounded_match_join, query, minimum, views, repeat=2)
        result = bounded_match(query, graph)
        table.add_row(
            _fmt_size(size, bound), t_bmatch, t_mnl, t_min, result.result_size
        )
    return table


def exp_fig8i(scale: float = 1.0) -> Table:
    return _bounded_table(
        "Fig. 8(i)", "Varying |Qb| (Amazon, fe=2)", "amazon", 2,
        workloads.AMAZON_SIZES, False, scale,
    )


def exp_fig8j(scale: float = 1.0) -> Table:
    return _bounded_table(
        "Fig. 8(j)", "Varying |Qb| (Citation, fe=3)", "citation", 3,
        workloads.CITATION_SIZES, True, scale,
    )


def exp_fig8k(scale: float = 1.0) -> Table:
    table = Table(
        "Fig. 8(k)", "Varying fe(e) (Youtube), pattern (4,8)",
        ["fe(e)", "BMatch (s)", "BMatchJoin_mnl (s)", "BMatchJoin_min (s)"],
        notes="Expected shape: BMatch grows steeply with the bound (deeper "
              "BFS); BMatchJoin stays near-flat (paper: 3% of BMatch at "
              "fe=3).",
    )
    # The per-bound view materialization is the costly part, so this
    # figure runs on a half-size YouTube graph.
    sub_scale = scale * 0.5
    for bound in (2, 3, 4, 5, 6):
        graph, views = workloads.bounded_dataset("youtube", bound, sub_scale)
        query = workloads.pick_query(
            views, 4, 8, graph=graph, tag=f"youtube@{bound}"
        )
        minimal = bounded_minimal_views(query, views)
        minimum = bounded_minimum_views(query, views)
        table.add_row(
            bound,
            timed(bounded_match, query, graph),
            timed(bounded_match_join, query, minimal, views),
            timed(bounded_match_join, query, minimum, views),
        )
    return table


def exp_fig8l(scale: float = 1.0) -> Table:
    table = Table(
        "Fig. 8(l)", "Varying |G| (synthetic, bounded fe=3), pattern (4,6)",
        ["|V|", "BMatch (s)", "BMatchJoin_mnl (s)", "BMatchJoin_min (s)"],
        notes="Expected shape: BMatchJoin_min scales best and stays a small "
              "fraction of BMatch (paper: ~6%), with the gap growing "
              "with |G|.",
    )
    for num_nodes in _synthetic_sweep(scale):
        graph, views = workloads.synthetic_bounded(num_nodes, 3)
        query = workloads.pick_query(
            views, 4, 6, graph=graph, tag=f"synb{num_nodes}"
        )
        minimal = bounded_minimal_views(query, views)
        minimum = bounded_minimum_views(query, views)
        table.add_row(
            num_nodes,
            timed(bounded_match, query, graph),
            timed(bounded_match_join, query, minimal, views, repeat=2),
            timed(bounded_match_join, query, minimum, views, repeat=2),
        )
    return table


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
    for name, dataset, sizes, dag in (
        ("amazon", workloads.amazon, (6, 9), False),
        ("citation", workloads.citation, (6, 9), True),
        ("youtube", workloads.youtube, (6, 9), False),
    ):
        graph, views = dataset(scale)
        query = workloads.pick_query(
            views, sizes[0], sizes[1], graph=graph, require_dag=dag, tag=name
        )
        minimum = minimum_views(query, views)
        t_match = timed(match, query, graph, repeat=3)
        t_min = timed(match_join, query, minimum, views, repeat=3)
        result = match(query, graph)
        table.add_row(
            name,
            views.extension_fraction(graph),
            len(minimum.views_used()),
            t_min / t_match if t_match else float("nan"),
            result.result_size,
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
