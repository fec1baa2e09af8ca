"""Seeds and mutation: walk the exchange graph of a rank-4 cluster tube.

Starting from the zig-zag object, exchange summands one at a time and
watch the B-matrix mutate; the graph has C(6,3) = 20 seeds and is
3-regular.
"""

from clustertube import (
    build_exchange_graph,
    cartan_counterpart,
    enumerate_maximal_rigid,
    exchange,
    initial_seed,
)


def show(label, obj, mat):
    print(f"{label}: " + " + ".join(f"({x.a},{x.b})" for x in obj.summands))
    for row in mat.entries:
        print("   " + " ".join(f"{v:3d}" for v in row))


N = 4
seed = initial_seed(N)
graph = build_exchange_graph(N)

show("initial seed", seed.object, seed.matrix)
print("\nCartan counterpart (type B_3):")
for row in cartan_counterpart(seed.matrix):
    print("   " + " ".join(f"{v:3d}" for v in row))

print("\nmutate at each summand in turn:")
t = seed.object
for k in range(N - 1):
    t2, k2 = exchange(t, k)
    show(f"\nexchange at {t.summands[k]}", t2, graph.b_matrix(t2))
    back, _ = exchange(t2, k2)
    assert back == t, "exchange is an involution"

print(f"\nwhole graph: {len(graph.nodes)} seeds, "
      f"{len(graph.edges) // 2} exchange edges")
nodes = enumerate_maximal_rigid(N)  # the graph numbers its seeds in this order
# edges[i*(N-1)+k] is the seed reached by exchanging summand k of seed i;
# the first seed popped by the search is the zig-zag one
i, k = graph.order[0], 0
j = graph.edges[i * (N - 1) + k]
print(f"edges is one flat array of seed numbers, {N - 1} per seed:")
print(f"edges[{i}*{N - 1}+{k}] = {j}: exchanging summand {k} of seed {i} reaches seed {j}")
assert exchange(nodes[i], k)[0] == nodes[j]
print(f"tau rotates the seeds in {len(graph.nodes) // N} orbits of {N}. Each B-matrix was")
print("propagated by mutation on one seed per orbit and compared on every")
print("edge between orbits and within one; rotation gives the rest, so the")
print("assignment seed -> matrix is path independent.")
