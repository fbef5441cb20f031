// √n-decomposition and binary-tree bag decomposition: exhaustive structural
// invariants, parameterized over n / group width.
#include <gtest/gtest.h>

#include <set>

#include "groups/partition.h"
#include "groups/tree.h"
#include "support/check.h"

namespace omx::groups {
namespace {

class PartitionInvariants : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PartitionInvariants, CoversDisjointlyWithSqrtBounds) {
  const std::uint32_t n = GetParam();
  SqrtPartition part(n);
  // ⌈√n⌉ bound on group count and sizes.
  const std::uint32_t width = part.max_group_size();
  EXPECT_GE(static_cast<std::uint64_t>(width) * width, n);
  EXPECT_LT(static_cast<std::uint64_t>(width - 1) * (width - 1), n);
  EXPECT_LE(part.num_groups(), width);

  std::set<std::uint32_t> seen;
  for (std::uint32_t g = 0; g < part.num_groups(); ++g) {
    EXPECT_LE(part.group_size(g), width);
    EXPECT_GE(part.group_size(g), 1u);
    EXPECT_EQ(part.members(g).size(), part.group_size(g));
    for (std::uint32_t p : part.members(g)) {
      EXPECT_TRUE(seen.insert(p).second) << "member in two groups";
      EXPECT_EQ(part.group_of(p), g);
      EXPECT_EQ(part.members(g)[part.index_in_group(p)], p);
    }
  }
  EXPECT_EQ(seen.size(), n);  // total coverage
}

INSTANTIATE_TEST_SUITE_P(Sizes, PartitionInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 9, 15, 16, 17,
                                           30, 31, 63, 64, 65, 100, 128, 255,
                                           256, 1000, 1024));

TEST(Partition, RejectsZero) {
  EXPECT_THROW(SqrtPartition(0), PreconditionError);
}

TEST(Partition, OutOfRangeQueriesThrow) {
  SqrtPartition part(10);
  EXPECT_THROW(part.group_of(10), PreconditionError);
  EXPECT_THROW(part.group_size(part.num_groups()), PreconditionError);
}

TEST(PartitionShared, MemoizesPerN) {
  const std::uint64_t builds_before = SqrtPartition::shared_builds();
  const auto a = SqrtPartition::shared_for(36);
  const auto b = SqrtPartition::shared_for(36);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->n(), 36u);
  EXPECT_LE(SqrtPartition::shared_builds(), builds_before + 1);
}

TEST(PartitionShared, MatchesAFreshPartition) {
  for (const std::uint32_t n : {1u, 2u, 36u, 37u, 1000u}) {
    const auto shared = SqrtPartition::shared_for(n);
    const SqrtPartition fresh(n);
    ASSERT_EQ(shared->n(), n);
    EXPECT_EQ(shared->num_groups(), fresh.num_groups()) << "n=" << n;
    EXPECT_EQ(shared->max_group_size(), fresh.max_group_size()) << "n=" << n;
    for (std::uint32_t p = 0; p < n; ++p) {
      ASSERT_EQ(shared->group_of(p), fresh.group_of(p)) << "n=" << n;
      ASSERT_EQ(shared->index_in_group(p), fresh.index_in_group(p))
          << "n=" << n;
    }
  }
}

class TreeInvariants : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TreeInvariants, LayersPartitionAndMerge) {
  const std::uint32_t w = GetParam();
  TreeDecomposition tree(w);
  const std::uint32_t layers = tree.num_layers();
  // Layer 1: singletons. Top layer: whole group.
  EXPECT_EQ(tree.bags_in_layer(1), w);
  EXPECT_EQ(tree.bag(layers, 0).lo, 0u);
  EXPECT_EQ(tree.bag(layers, 0).hi, w);
  EXPECT_EQ(tree.bags_in_layer(layers), 1u);

  for (std::uint32_t j = 1; j <= layers; ++j) {
    // Bags of a layer tile [0, w) in order.
    std::uint32_t cursor = 0;
    for (std::uint32_t k = 0; k < tree.bags_in_layer(j); ++k) {
      const auto bag = tree.bag(j, k);
      EXPECT_EQ(bag.lo, cursor);
      EXPECT_GE(bag.hi, bag.lo);
      cursor = bag.hi;
    }
    EXPECT_EQ(cursor, w);
    // Membership is consistent with bag_index_of.
    for (std::uint32_t m = 0; m < w; ++m) {
      const auto k = tree.bag_index_of(j, m);
      EXPECT_TRUE(tree.bag(j, k).contains(m));
    }
  }

  // Parent bags are exactly the union of their two children.
  for (std::uint32_t j = 2; j <= layers; ++j) {
    for (std::uint32_t k = 0; k < tree.bags_in_layer(j); ++k) {
      const auto parent = tree.bag(j, k);
      const auto left = tree.bag(j - 1, 2 * k);
      const std::uint32_t right_idx = 2 * k + 1;
      const auto right = right_idx < tree.bags_in_layer(j - 1)
                             ? tree.bag(j - 1, right_idx)
                             : TreeDecomposition::Bag{parent.hi, parent.hi};
      EXPECT_EQ(parent.lo, left.lo);
      EXPECT_EQ(left.hi, right.empty() ? parent.hi : right.lo);
      EXPECT_EQ(parent.hi, right.empty() ? left.hi : right.hi);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, TreeInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16,
                                           17, 31, 32, 33, 100));

TEST(Tree, LayerCountIsCeilLog2Plus1) {
  EXPECT_EQ(TreeDecomposition(1).num_layers(), 1u);
  EXPECT_EQ(TreeDecomposition(2).num_layers(), 2u);
  EXPECT_EQ(TreeDecomposition(3).num_layers(), 3u);
  EXPECT_EQ(TreeDecomposition(4).num_layers(), 3u);
  EXPECT_EQ(TreeDecomposition(5).num_layers(), 4u);
  EXPECT_EQ(TreeDecomposition(32).num_layers(), 6u);
}

TEST(Tree, BagUidsAreUniqueAcrossLayers) {
  TreeDecomposition tree(13);
  std::set<std::uint32_t> uids;
  for (std::uint32_t j = 1; j <= tree.num_layers(); ++j) {
    for (std::uint32_t k = 0; k < tree.bags_in_layer(j); ++k) {
      EXPECT_TRUE(uids.insert(tree.bag_uid(j, k)).second);
    }
  }
}

TEST(Tree, RangeChecks) {
  TreeDecomposition tree(8);
  EXPECT_THROW(tree.bag(0, 0), PreconditionError);
  EXPECT_THROW(tree.bag(5, 0), PreconditionError);
  EXPECT_THROW(tree.bag_index_of(1, 8), PreconditionError);
  EXPECT_THROW(TreeDecomposition(0), PreconditionError);
}

}  // namespace
}  // namespace omx::groups
