/**
 * @file
 * k-d tree implementation with dependent-miss instrumentation.
 */

#include "robotics/kdtree.hh"

#include <cmath>

namespace tartan::robotics {

KdTreeNns::KdTreeNns(const float *store, std::uint32_t dim,
                     std::uint32_t stride, tartan::sim::Arena *arena)
    : NnsBackend(store, dim, stride), arenaPtr(arena)
{
}

KdTreeNns::~KdTreeNns()
{
    if (!arenaPtr)
        for (Node *n : nodes)
            delete n;
}

KdTreeNns::Node *
KdTreeNns::allocNode()
{
    // One cache line per node either way: individual heap allocations
    // model OMPL's scatter; the arena path keeps the same
    // one-line-per-node footprint while making placement a pure
    // function of insertion order.
    return arenaPtr ? arenaPtr->alloc<Node>(1, 64) : new Node();
}

void
KdTreeNns::insert(Mem &mem, std::uint32_t id)
{
    Node *fresh = allocNode();
    fresh->id = id;
    const std::int32_t fresh_idx =
        static_cast<std::int32_t>(nodes.size());

    if (root < 0) {
        fresh->splitDim = 0;
        nodes.push_back(fresh);
        root = fresh_idx;
        return;
    }

    std::int32_t cur = root;
    while (true) {
        Node *n = nodes[static_cast<std::size_t>(cur)];
        // Pointer-chasing walk: node record then the split coordinate.
        mem.loadv(&n->id, nns_pc::kdNode, MemDep::Dependent);
        const float split_val = mem.loadv(point(n->id) + n->splitDim,
                                          nns_pc::kdPoint,
                                          MemDep::Dependent);
        const float q_val = point(id)[n->splitDim];
        mem.exec(4);
        std::int32_t &child = q_val < split_val ? n->left : n->right;
        if (child < 0) {
            fresh->splitDim = (n->splitDim + 1) % dimension;
            child = fresh_idx;
            nodes.push_back(fresh);
            return;
        }
        cur = child;
    }
}

void
KdTreeNns::nearestRec(Mem &mem, std::int32_t node, const float *query,
                      std::int32_t &best, float &best_d)
{
    if (node < 0)
        return;
    Node *n = nodes[static_cast<std::size_t>(node)];
    mem.loadv(&n->id, nns_pc::kdNode, MemDep::Dependent);

    const float d = distSq(mem, query, n->id, nns_pc::kdPoint,
                           MemDep::Dependent);
    mem.exec(2);
    if (best < 0 || d < best_d) {
        best = static_cast<std::int32_t>(n->id);
        best_d = d;
    }

    const float split_val = point(n->id)[n->splitDim];
    const float diff = query[n->splitDim] - split_val;
    mem.exec(3);
    const std::int32_t near_child = diff < 0.0f ? n->left : n->right;
    const std::int32_t far_child = diff < 0.0f ? n->right : n->left;
    nearestRec(mem, near_child, query, best, best_d);
    if (best < 0 || diff * diff < best_d)
        nearestRec(mem, far_child, query, best, best_d);
}

std::int32_t
KdTreeNns::nearest(Mem &mem, const float *query)
{
    std::int32_t best = -1;
    float best_d = 0.0f;
    nearestRec(mem, root, query, best, best_d);
    return best;
}

void
KdTreeNns::radiusRec(Mem &mem, std::int32_t node, const float *query,
                     float eps_sq, std::vector<std::uint32_t> &out)
{
    if (node < 0)
        return;
    Node *n = nodes[static_cast<std::size_t>(node)];
    mem.loadv(&n->id, nns_pc::kdNode, MemDep::Dependent);

    const float d = distSq(mem, query, n->id, nns_pc::kdPoint,
                           MemDep::Dependent);
    mem.exec(2);
    if (d <= eps_sq)
        out.push_back(n->id);

    const float split_val = point(n->id)[n->splitDim];
    const float diff = query[n->splitDim] - split_val;
    mem.exec(3);
    const std::int32_t near_child = diff < 0.0f ? n->left : n->right;
    const std::int32_t far_child = diff < 0.0f ? n->right : n->left;
    radiusRec(mem, near_child, query, eps_sq, out);
    if (diff * diff <= eps_sq)
        radiusRec(mem, far_child, query, eps_sq, out);
}

void
KdTreeNns::radius(Mem &mem, const float *query, float eps,
                  std::vector<std::uint32_t> &out)
{
    radiusRec(mem, root, query, eps * eps, out);
}

} // namespace tartan::robotics
