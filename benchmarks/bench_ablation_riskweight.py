"""Ablation: path weight in the robustness suggestion (§5.1).

The framework minimizes the *sum* of tenant counts along the alternate
path.  This ablation compares against hop-count (shortest) and max-
tenant (bottleneck) objectives: risk-sum should achieve the best
shared-risk reduction per added hop.
"""

import networkx as nx

from repro.analysis.report import format_table
from repro.risk.metrics import most_shared_conduits
from tests.oracles.mitigation import _risk_graph


def _evaluate(scenario, weight_key):
    fiber_map = scenario.constructed_map
    matrix = scenario.risk_matrix
    targets = most_shared_conduits(matrix, top=12)
    total_srr = 0
    total_pi = 0
    solved = 0
    for conduit_id, tenants in targets:
        conduit = fiber_map.conduit(conduit_id)
        graph = _risk_graph(fiber_map, exclude=conduit_id)
        a, b = conduit.edge
        try:
            if weight_key == "minmax":
                # Bottleneck-minimizing path via binary search over risk.
                levels = sorted({d["risk"] for _, _, d in graph.edges(data=True)})
                path = None
                for level in levels:
                    sub = nx.Graph(
                        (u, v, d)
                        for u, v, d in graph.edges(data=True)
                        if d["risk"] <= level
                    )
                    if sub.has_node(a) and sub.has_node(b) and nx.has_path(sub, a, b):
                        path = nx.shortest_path(sub, a, b)
                        break
                if path is None:
                    continue
            else:
                path = nx.shortest_path(graph, a, b, weight=weight_key)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            continue
        max_risk = max(
            graph[u][v]["risk"] for u, v in zip(path, path[1:])
        )
        solved += 1
        total_srr += tenants - max_risk
        total_pi += len(path) - 2  # original path is one conduit
    return solved, total_pi / max(1, solved), total_srr / max(1, solved)


def _sweep(scenario):
    rows = []
    for label, key in (
        ("risk-sum (paper)", "risk"),
        ("hop count", None),
        ("bottleneck", "minmax"),
    ):
        solved, avg_pi, avg_srr = _evaluate(scenario, key)
        rows.append((label, solved, f"{avg_pi:.2f}", f"{avg_srr:.2f}"))
    return rows


def test_ablation_riskweight(benchmark, scenario, report_output):
    rows = benchmark.pedantic(_sweep, args=(scenario,), rounds=1, iterations=1)
    text = format_table(
        ("objective", "targets solved", "avg PI", "avg SRR"),
        rows,
        title="Ablation: alternate-path objective in the robustness suggestion",
    )
    report_output("ablation_riskweight", text)
