"""Pruning a dense candidate graph and reading off the best path.

A hand-built five-node graph shows the two decoding stages: weak-edge
pruning that never disconnects the terminals and breaks cycles, then the
longest start-to-end path through what survives, rendered as LaTeX and
as Graphviz dot.
"""

from hmegraph import (
    ExprGraph,
    Node,
    default_vocab,
    export_dot,
    longest_path,
    prune_and_acyclify,
)


def main():
    vocab = default_vocab()
    ids = [vocab.id_of(s) for s in ["x", "+", "y", "^", "2"]]
    nodes = {
        i + 1: Node(class_id=cid, row=0, col=i, index=i + 1)
        for i, cid in enumerate(ids)
    }
    n = len(nodes)
    edges = {
        (0, 1): 0.9,              # start -> x
        (1, 2): 0.9, (2, 3): 0.8, # x + y spine
        (3, 4): 0.7, (4, 5): 0.9, # y ^ 2
        (5, 6): 0.8,              # 2 -> end
        (2, 1): 0.6,              # cycle back into x
        (1, 4): 0.3,              # weak shortcut skipping + y
        (3, 6): 0.2,              # weak early exit
    }
    graph = ExprGraph(nodes=nodes, edges=edges, n_slots=n)
    print(f"dense graph: {len(graph.edges)} edges")

    pruned = prune_and_acyclify(graph, epsilon=0.5)
    kept = sorted(pruned.edges)
    dropped = sorted(set(graph.edges) - set(pruned.edges))
    print(f"after pruning at 0.5: kept {kept}")
    print(f"dropped weak or cycle-closing edges: {dropped}")

    result = longest_path(pruned, vocab)
    print(f"\nbest path    {result.path}")
    print(f"total weight {result.weight}")
    print(f"expression   {result.latex}")

    dot = export_dot(pruned, vocab, highlight=result.path)
    print("\ndot export (best path in bold):")
    print(dot)


if __name__ == "__main__":
    main()
