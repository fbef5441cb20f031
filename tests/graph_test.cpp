// Communication graph: construction, determinism, Theorem 4 property
// validators, Lemma 3/4 machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "graph/comm_graph.h"
#include "graph/validate.h"
#include "support/check.h"

namespace omx::graph {
namespace {

TEST(CommGraph, RejectsMalformedAdjacency) {
  using Adj = std::vector<std::vector<Vertex>>;
  EXPECT_THROW(CommGraph(Adj{{1}, {}}), PreconditionError);   // asymmetric
  EXPECT_THROW(CommGraph(Adj{{0}}), PreconditionError);       // self-loop
  EXPECT_THROW(CommGraph(Adj{{1, 1}, {0, 0}}), PreconditionError);  // dup
  EXPECT_THROW(CommGraph(Adj{{5}, {0}}), PreconditionError);  // out of range
}

TEST(CommGraph, BasicAccessors) {
  CommGraph g({{1, 2}, {0}, {0}});
  EXPECT_EQ(g.n(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(1, 2));
}

TEST(CommGraph, ErdosRenyiExtremes) {
  const auto empty = CommGraph::erdos_renyi(10, 0.0, 1);
  EXPECT_EQ(empty.num_edges(), 0u);
  const auto complete = CommGraph::erdos_renyi(10, 1.0, 1);
  EXPECT_EQ(complete.num_edges(), 45u);
}

TEST(CommGraph, ErdosRenyiDeterministicPerSeed) {
  const auto a = CommGraph::erdos_renyi(64, 0.2, 7);
  const auto b = CommGraph::erdos_renyi(64, 0.2, 7);
  const auto c = CommGraph::erdos_renyi(64, 0.2, 8);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (Vertex v = 0; v < 64; ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v));
  }
  EXPECT_NE(a.num_edges(), c.num_edges());  // overwhelmingly likely
}

TEST(CommGraph, ErdosRenyiEdgeCountNearExpectation) {
  const std::uint32_t n = 400;
  const double p = 0.05;
  const auto g = CommGraph::erdos_renyi(n, p, 3);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              4 * std::sqrt(expected));
}

TEST(CommGraph, CommonForIsAFunctionOfNAndDelta) {
  const auto a = CommGraph::common_for(128, 28);
  const auto b = CommGraph::common_for(128, 28);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (Vertex v = 0; v < 128; ++v) ASSERT_EQ(a.degree(v), b.degree(v));
}

TEST(Validate, DegreeStats) {
  CommGraph g({{1, 2}, {0}, {0}});
  const auto s = degree_stats(g);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 2u);
  EXPECT_NEAR(s.mean, 4.0 / 3.0, 1e-12);
  EXPECT_TRUE(degrees_within(g, 1, 2));
  EXPECT_FALSE(degrees_within(g, 2, 2));
}

TEST(Validate, DegreesConcentrateAroundDelta) {
  // Theorem 4 (iii) shape: at Δ = c log n the degrees concentrate.
  const std::uint32_t n = 1024, delta = 60;
  const auto g = CommGraph::common_for(n, delta);
  const auto s = degree_stats(g);
  EXPECT_NEAR(s.mean, delta, 2.0);
  EXPECT_GT(s.min, delta / 2);
  EXPECT_LT(s.max, 2 * delta);
}

TEST(Validate, ExpansionSampledHoldsAtLogDegree) {
  // Theorem 4 (i) shape: disjoint n/10-sets are always connected.
  const std::uint32_t n = 500;
  const auto g = CommGraph::common_for(n, 36);
  EXPECT_EQ(sampled_expansion_failure(g, n / 10, 300, 17), 0.0);
}

TEST(Validate, ExpansionFailsOnEmptyGraph) {
  const auto g = CommGraph::erdos_renyi(100, 0.0, 1);
  EXPECT_EQ(sampled_expansion_failure(g, 10, 50, 17), 1.0);
}

TEST(Validate, InternalEdges) {
  CommGraph g({{1, 2}, {0, 2}, {0, 1, 3}, {2}});
  const std::vector<Vertex> tri{0, 1, 2};
  EXPECT_EQ(internal_edges(g, tri), 3u);
  const std::vector<Vertex> pair{2, 3};
  EXPECT_EQ(internal_edges(g, pair), 1u);
  const std::vector<Vertex> far{0, 3};
  EXPECT_EQ(internal_edges(g, far), 0u);
}

TEST(Validate, ExactEdgeSparsityOnSmallGraphs) {
  // A path is very sparse: internal edges of any X <= |X| - 1 < |X|.
  CommGraph path({{1}, {0, 2}, {1, 3}, {2}});
  EXPECT_TRUE(exact_edge_sparse(path, 4, 1.0));
  // K4 has subsets with |edges| = 1.5|X|.
  CommGraph k4({{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}});
  EXPECT_FALSE(exact_edge_sparse(k4, 4, 1.0));
  EXPECT_TRUE(exact_edge_sparse(k4, 4, 1.5));
}

TEST(Validate, SampledEdgeSparsityMatchesTheorem4Shape) {
  const std::uint32_t n = 600;
  const std::uint32_t delta = 40;  // ~4 log2 n
  const auto g = CommGraph::common_for(n, delta);
  // Theorem 4 (ii): subsets up to n/10 have < (Δ/15)|X| internal edges.
  const double worst = sampled_max_internal_edge_ratio(g, n / 10, 200, 23);
  EXPECT_LT(worst, delta / 15.0 + 1.0);
}

TEST(Validate, PeelingKeepsAlmostEverythingAfterRemovals) {
  // Lemma 4 shape: removing T <= n/15 nodes leaves a min-degree->Δ/3 core
  // of size >= n - (4/3)|T| (we allow the lemma's slack exactly).
  const std::uint32_t n = 600;
  const std::uint32_t delta = 40;
  const auto g = CommGraph::common_for(n, delta);
  std::vector<Vertex> removed;
  for (Vertex v = 0; v < n / 15; ++v) removed.push_back(v * 7 % n);
  std::sort(removed.begin(), removed.end());
  removed.erase(std::unique(removed.begin(), removed.end()), removed.end());
  const auto survivors = peel_dense_subgraph(g, removed, delta / 3);
  EXPECT_GE(survivors.size() + (4 * removed.size()) / 3 + 1, n);
  // Survivors are disjoint from removed.
  std::set<Vertex> rem(removed.begin(), removed.end());
  for (Vertex v : survivors) EXPECT_EQ(rem.count(v), 0u);
  // And indeed have the required degree within the surviving set.
  std::set<Vertex> alive(survivors.begin(), survivors.end());
  for (Vertex v : survivors) {
    std::uint32_t d = 0;
    for (Vertex u : g.neighbors(v)) d += alive.count(u) ? 1 : 0;
    EXPECT_GE(d, delta / 3);
  }
}

TEST(Validate, PeelingSurvivesTargetedHighDegreeRemoval) {
  // Adversarial flavour of Lemma 4: remove the n/15 HIGHEST-degree nodes
  // (worst case for density) — the surviving core still meets the bound.
  const std::uint32_t n = 600;
  const std::uint32_t delta = 40;
  const auto g = CommGraph::common_for(n, delta);
  std::vector<std::pair<std::uint32_t, Vertex>> by_degree;
  for (Vertex v = 0; v < n; ++v) by_degree.emplace_back(g.degree(v), v);
  std::sort(by_degree.rbegin(), by_degree.rend());
  std::vector<Vertex> removed;
  for (std::uint32_t i = 0; i < n / 15; ++i)
    removed.push_back(by_degree[i].second);
  const auto survivors = peel_dense_subgraph(g, removed, delta / 3);
  EXPECT_GE(survivors.size() + (4 * removed.size()) / 3 + 1, n);
}

TEST(Validate, PeelingSurvivesContiguousBlockRemoval) {
  // Removing one contiguous id block (a whole region of √n-groups).
  const std::uint32_t n = 600;
  const std::uint32_t delta = 40;
  const auto g = CommGraph::common_for(n, delta);
  std::vector<Vertex> removed;
  for (Vertex v = 0; v < n / 15; ++v) removed.push_back(v);
  const auto survivors = peel_dense_subgraph(g, removed, delta / 3);
  EXPECT_GE(survivors.size() + (4 * removed.size()) / 3 + 1, n);
}

TEST(Validate, ExpansionHoldsAfterRemovals) {
  // Lemma 6's routing argument needs expansion among survivors too.
  const std::uint32_t n = 600;
  const auto g = CommGraph::common_for(n, 40);
  // Sample expansion restricted to the upper 90% of ids (lower 10% "dead"):
  // approximate by checking disjoint pairs drawn from the whole graph still
  // connect through at least one edge even if we forbid low-id endpoints.
  const auto sizes = neighborhood_growth(g, n - 1, 3, {});
  EXPECT_GE(sizes[3], n / 2);  // deep reach from an arbitrary survivor
}

TEST(Validate, PeelingEmptyRemovalKeepsAll) {
  const auto g = CommGraph::common_for(200, 30);
  const auto survivors = peel_dense_subgraph(g, {}, 10);
  EXPECT_EQ(survivors.size(), 200u);
}

TEST(Validate, PeelingHighThresholdRemovesAll) {
  const auto g = CommGraph::common_for(50, 6);
  const auto survivors = peel_dense_subgraph(g, {}, 49);
  EXPECT_TRUE(survivors.empty());
}

TEST(Validate, NeighborhoodGrowthDoublesUntilSaturation) {
  // Lemma 3 shape: |N^k(v)| grows at least geometrically up to ~n/10.
  const std::uint32_t n = 800;
  const auto g = CommGraph::common_for(n, 40);
  const auto sizes = neighborhood_growth(g, 0, 4, {});
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_GE(sizes[1], 20u);       // ~Δ
  EXPECT_GE(sizes[2], 2 * sizes[1]);
  EXPECT_GE(sizes.back(), n / 10);
}

TEST(Validate, EccentricityIsLogarithmicOnTheCommonGraph) {
  const std::uint32_t n = 800;
  const auto g = CommGraph::common_for(n, 40);
  const auto ecc = eccentricity(g, 5, {});
  EXPECT_GE(ecc, 2u);
  EXPECT_LE(ecc, 10u);  // ~log n with lots of slack
}

TEST(Validate, EccentricityRespectsAliveMask) {
  // 0-1-2-3 path, keep only {0,1}.
  CommGraph path({{1}, {0, 2}, {1, 3}, {2}});
  const std::vector<Vertex> alive{0, 1};
  EXPECT_EQ(eccentricity(path, 0, alive), 1u);
}

TEST(SharedCache, ConcurrentFirstTouchBuildsExactlyOnce) {
  // A (n, Δ) key never requested before, hit by many threads at once: all
  // callers must end up with the SAME instance and the cache must build
  // exactly one graph (per-key call_once), not one per racing thread.
  const std::uint32_t n = 557;  // unique to this test
  const std::uint32_t delta = 23;
  const std::uint64_t builds_before = CommGraph::common_for_shared_builds();

  constexpr unsigned kThreads = 8;
  std::vector<std::shared_ptr<const CommGraph>> got(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned i = 0; i < kThreads; ++i) {
      threads.emplace_back([&got, i] {
        got[i] = CommGraph::common_for_shared(n, delta);
      });
    }
    for (auto& th : threads) th.join();
  }

  for (unsigned i = 0; i < kThreads; ++i) {
    ASSERT_NE(got[i], nullptr);
    EXPECT_EQ(got[i].get(), got[0].get()) << "thread " << i;
  }
  EXPECT_EQ(CommGraph::common_for_shared_builds(), builds_before + 1);
  // Repeat touches are cache hits, not rebuilds.
  const auto again = CommGraph::common_for_shared(n, delta);
  EXPECT_EQ(again.get(), got[0].get());
  EXPECT_EQ(CommGraph::common_for_shared_builds(), builds_before + 1);
}

TEST(SharedCache, SharedGraphIsTheGraphCommonForBuilds) {
  // The memo hands out exactly the graph a fresh common_for(n, Δ) builds:
  // a trial that inherits it from the farm daemon reads the same edges it
  // would have generated itself.
  for (const auto& [n, delta] : {std::pair<std::uint32_t, std::uint32_t>{2, 1},
                                {97, 13},
                                {300, 25}}) {
    const auto shared = CommGraph::common_for_shared(n, delta);
    const CommGraph fresh = CommGraph::common_for(n, delta);
    ASSERT_EQ(shared->n(), fresh.n());
    EXPECT_EQ(shared->num_edges(), fresh.num_edges()) << "n=" << n;
    for (Vertex v = 0; v < n; ++v) {
      const auto a = shared->neighbors(v);
      const auto b = fresh.neighbors(v);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "n=" << n << " vertex " << v;
    }
  }
}

}  // namespace
}  // namespace omx::graph
