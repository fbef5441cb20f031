#include "graph/comm_graph.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "support/check.h"
#include "support/prng.h"

namespace omx::graph {

CommGraph::CommGraph(std::vector<std::vector<Vertex>> adjacency) {
  const auto n = static_cast<Vertex>(adjacency.size());
  offsets_.resize(n + 1);
  offsets_[0] = 0;
  for (Vertex v = 0; v < n; ++v) {
    auto& nb = adjacency[v];
    std::sort(nb.begin(), nb.end());
    OMX_REQUIRE(std::adjacent_find(nb.begin(), nb.end()) == nb.end(),
                "duplicate edge in adjacency list");
    for (Vertex u : nb) {
      OMX_REQUIRE(u < n, "neighbor out of range");
      OMX_REQUIRE(u != v, "self-loop in adjacency list");
    }
    offsets_[v + 1] = offsets_[v] + static_cast<std::uint32_t>(nb.size());
    num_edges_ += nb.size();
  }
  flat_.reserve(offsets_[n]);
  for (Vertex v = 0; v < n; ++v) {
    flat_.insert(flat_.end(), adjacency[v].begin(), adjacency[v].end());
  }
  // Symmetry check (binary search per directed edge).
  for (Vertex v = 0; v < n; ++v) {
    for (Vertex u : neighbors(v)) {
      const auto nb = neighbors(u);
      OMX_REQUIRE(std::binary_search(nb.begin(), nb.end(), v),
                  "adjacency is not symmetric");
    }
  }
  num_edges_ /= 2;
}

bool CommGraph::has_edge(Vertex u, Vertex v) const {
  OMX_REQUIRE(u < n() && v < n(), "vertex out of range");
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

CommGraph CommGraph::erdos_renyi(std::uint32_t n, double edge_prob,
                                 std::uint64_t seed) {
  OMX_REQUIRE(edge_prob >= 0.0 && edge_prob <= 1.0,
              "edge probability out of [0,1]");
  Xoshiro256 gen(seed);
  std::vector<std::vector<Vertex>> adj(n);
  // Geometric skipping: expected O(n^2 * p) work instead of O(n^2).
  if (edge_prob > 0.0 && n >= 2) {
    const double log1mp = std::log1p(-edge_prob);
    // Iterate over the upper-triangular pair index space.
    const std::uint64_t total =
        static_cast<std::uint64_t>(n) * (n - 1) / 2;
    std::uint64_t idx = 0;
    auto advance = [&]() -> bool {
      if (edge_prob >= 1.0) {
        ++idx;
        return idx <= total;
      }
      const double u = std::max(gen.uniform01(), 1e-300);
      const auto skip =
          static_cast<std::uint64_t>(std::floor(std::log(u) / log1mp));
      idx += skip + 1;
      return idx <= total;
    };
    while (advance()) {
      // Map linear index (1-based) to pair (i, j), i < j.
      const std::uint64_t k = idx - 1;
      // Row i satisfies: offset(i) <= k < offset(i+1), offset(i) =
      // i*n - i*(i+1)/2. Solve by binary search for robustness.
      std::uint32_t lo = 0, hi = n - 1;
      auto offset = [&](std::uint64_t i) {
        return i * n - i * (i + 1) / 2;
      };
      while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo + 1) / 2;
        if (offset(mid) <= k) lo = mid;
        else hi = mid - 1;
      }
      const std::uint32_t i = lo;
      const auto j = static_cast<std::uint32_t>(k - offset(i) + i + 1);
      adj[i].push_back(j);
      adj[j].push_back(i);
    }
  }
  return CommGraph(std::move(adj));
}

CommGraph CommGraph::common_for(std::uint32_t n, std::uint32_t delta) {
  OMX_REQUIRE(n >= 2, "common graph needs n >= 2");
  const double p = std::min(1.0, static_cast<double>(delta) /
                                     static_cast<double>(n - 1));
  // Fixed tag so the graph is a deterministic function of (n, delta) only:
  // this is the "common knowledge" object all processes agree on.
  const std::uint64_t seed = mix64(0x0C0FFEEULL ^ n, delta);
  return erdos_renyi(n, p, seed);
}

namespace {
struct CacheEntry {
  std::once_flag once;
  std::shared_ptr<const CommGraph> graph;
};
std::atomic<std::uint64_t> shared_builds{0};
}  // namespace

std::shared_ptr<const CommGraph> CommGraph::common_for_shared(
    std::uint32_t n, std::uint32_t delta) {
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  static std::mutex mu;
  static std::map<Key, CacheEntry> cache;  // node-stable addresses

  CacheEntry* entry;
  {
    std::lock_guard<std::mutex> lock(mu);
    entry = &cache[Key{n, delta}];
  }
  // Build outside the map lock (construction is the expensive part), but
  // exactly once per key: concurrent first touches collapse into one build,
  // the losers block here until the graph is ready.
  std::call_once(entry->once, [&] {
    entry->graph = std::make_shared<const CommGraph>(common_for(n, delta));
    shared_builds.fetch_add(1, std::memory_order_relaxed);
  });
  return entry->graph;
}

std::uint64_t CommGraph::common_for_shared_builds() {
  return shared_builds.load(std::memory_order_relaxed);
}

}  // namespace omx::graph
