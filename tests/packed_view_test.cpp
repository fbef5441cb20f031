// Unit coverage for the packed-representation primitives: PackedBits,
// the O(words) field-bits accounting, PackedView merge semantics, and the
// RunSet ring algebra — each checked against a brute-force oracle.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "core/packed_view.h"
#include "support/bits.h"
#include "support/packed_bits.h"
#include "support/run_set.h"

namespace omx {
namespace {

using core::PackedFlood;
using core::PackedView;
using support::PackedBits;
using support::Run;
using support::RunSet;
using support::RunSetPtr;
using support::ShiftedSet;

// ---------------------------------------------------------------------------
// field_bits_prefix: closed form == brute-force partial sums.

TEST(FieldBitsPrefix, MatchesBruteForcePartialSums) {
  std::uint64_t brute = 0;
  EXPECT_EQ(field_bits_prefix(0), 0u);
  for (std::uint64_t x = 0; x < 5000; ++x) {
    brute += field_bits(x);
    EXPECT_EQ(field_bits_prefix(x + 1), brute) << "x=" << x;
  }
}

TEST(FieldBitsPrefix, IntervalBillingMatchesPairLoop) {
  // interval_pair_bits([lo, hi)) == sum of (field_bits(id) + 1).
  const std::uint32_t lo = 37, hi = 4099;
  std::uint64_t brute = 0;
  for (std::uint32_t id = lo; id < hi; ++id) {
    brute += field_bits(id) + 1;
  }
  EXPECT_EQ(support::interval_pair_bits(lo, hi), brute);
  EXPECT_EQ(support::interval_pair_bits(5, 5), 0u);
}

// ---------------------------------------------------------------------------
// PackedBits basics, including n not a multiple of 64.

TEST(PackedBits, SetTestCountAtAwkwardSize) {
  PackedBits b(70);  // 2 words, top word mostly slack
  EXPECT_EQ(b.size(), 70u);
  EXPECT_EQ(b.num_words(), 2u);
  EXPECT_FALSE(b.any());
  EXPECT_EQ(b.count(), 0u);

  EXPECT_TRUE(b.test_and_set(0));
  EXPECT_FALSE(b.test_and_set(0));  // second set is not fresh
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_TRUE(b.test(69));
  EXPECT_FALSE(b.test(68));
  EXPECT_EQ(b.count(), 4u);

  std::vector<std::uint32_t> seen;
  b.for_each_set([&](std::uint32_t id) { seen.push_back(id); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 63, 64, 69}));

  b.clear_all();
  EXPECT_FALSE(b.any());
  EXPECT_EQ(b.size(), 70u);  // clear keeps the size
}

TEST(PackedBits, SumFieldBitsMatchesPerIdLoop) {
  std::mt19937 rng(20240807);
  for (const std::uint32_t n : {1u, 64u, 70u, 100u, 1000u, 4096u}) {
    PackedBits b(n);
    std::uint64_t brute = 0;
    for (std::uint32_t id = 0; id < n; ++id) {
      if (rng() % 3 == 0) {
        b.set(id);
        brute += field_bits(id);
      }
    }
    EXPECT_EQ(support::sum_field_bits(b), brute) << "n=" << n;
  }
}

TEST(PackedBits, SumFieldBitsAllSet) {
  // All-set is the flood steady state; check against the closed form.
  const std::uint32_t n = 777;
  PackedBits b(n);
  for (std::uint32_t id = 0; id < n; ++id) b.set(id);
  EXPECT_EQ(support::sum_field_bits(b), field_bits_prefix(n));
}

// ---------------------------------------------------------------------------
// PackedView: empty / all-known / merge with fresh tracking.

TEST(PackedView, EmptyViewBlobIsOneBit) {
  PackedView v(100);
  EXPECT_FALSE(v.any());
  EXPECT_FALSE(v.full());
  EXPECT_EQ(v.known_count(), 0u);
  const auto blob = v.make_blob();
  EXPECT_EQ(blob->bits, 1u);  // an empty relay is its 1-bit framing
}

TEST(PackedView, AddAndReadBack) {
  PackedView v(70);
  EXPECT_TRUE(v.add(69, 1));
  EXPECT_TRUE(v.add(3, 0));
  EXPECT_FALSE(v.add(69, 0));  // duplicate add is a no-op...
  EXPECT_EQ(v.value_of(69), 1u);  // ...and cannot flip the stored bit
  EXPECT_EQ(v.value_of(3), 0u);
  EXPECT_FALSE(v.knows(4));
  EXPECT_EQ(v.known_count(), 2u);
  EXPECT_EQ(v.ones(), 1u);
  EXPECT_EQ(v.zeros(), 1u);
}

TEST(PackedView, AllKnownShortCircuitsAndCounts) {
  const std::uint32_t n = 130;
  PackedView v(n);
  std::uint32_t ones = 0;
  for (std::uint32_t id = 0; id < n; ++id) {
    const std::uint8_t bit = id % 3 == 0;
    ones += bit;
    v.add(id, bit);
  }
  EXPECT_TRUE(v.full());
  EXPECT_EQ(v.ones(), ones);
  EXPECT_EQ(v.zeros(), n - ones);
  // A relay bills 1 + Σ (field_bits(id) + 1): a self-delimiting id plus
  // the bit per pair.
  std::uint64_t brute = 1;
  for (std::uint32_t id = 0; id < n; ++id) {
    brute += field_bits(id) + 1;
  }
  EXPECT_EQ(v.make_blob()->bits, brute);
}

TEST(PackedView, MergeTracksFreshAndIgnoresKnownIds) {
  const std::uint32_t n = 100;
  PackedView a(n), fresh(n);
  a.add(1, 1);
  a.add(70, 0);

  PackedView b(n);
  b.add(1, 0);   // conflicting value for a known id must NOT overwrite
  b.add(2, 1);   // novel
  b.add(71, 1);  // novel
  const auto blob = b.make_blob();

  EXPECT_EQ(a.merge_from(*blob, &fresh), 2u);
  EXPECT_EQ(a.known_count(), 4u);
  EXPECT_EQ(a.value_of(1), 1u);  // first-learned value wins (legacy learn())
  EXPECT_EQ(a.value_of(2), 1u);
  EXPECT_EQ(a.value_of(71), 1u);
  // fresh mirrors exactly the novel ids.
  EXPECT_EQ(fresh.known_count(), 2u);
  EXPECT_TRUE(fresh.knows(2));
  EXPECT_TRUE(fresh.knows(71));
  EXPECT_FALSE(fresh.knows(1));

  // Re-merging the same blob learns nothing new.
  EXPECT_EQ(a.merge_from(*blob, &fresh), 0u);
  EXPECT_EQ(fresh.known_count(), 2u);
}

TEST(PackedView, ClearKeepsCapacityAndSize) {
  PackedView v(50);
  v.add(10, 1);
  v.clear_keep_capacity();
  EXPECT_EQ(v.size(), 50u);
  EXPECT_FALSE(v.any());
  EXPECT_TRUE(v.add(10, 0));
  EXPECT_EQ(v.value_of(10), 0u);  // the cleared value bit did not linger
}

// ---------------------------------------------------------------------------
// RunSet ring algebra vs a std::set oracle.

std::set<std::uint32_t> ids_of(const RunSet& s) {
  std::set<std::uint32_t> out;
  s.for_each_id([&](std::uint32_t id) { out.insert(id); });
  return out;
}

RunSetPtr from_ids(const std::set<std::uint32_t>& ids) {
  std::vector<Run> runs;
  for (std::uint32_t id : ids) {
    if (!runs.empty() && runs.back().hi == id) {
      ++runs.back().hi;
    } else {
      runs.push_back(Run{id, id + 1});
    }
  }
  return std::make_shared<RunSet>(std::move(runs));
}

TEST(RunSet, UnionShiftedMatchesSetOracle) {
  std::mt19937 rng(7);
  const std::uint32_t n = 257;  // prime-ish: exercises seam wrapping
  for (int iter = 0; iter < 50; ++iter) {
    std::set<std::uint32_t> base_ids, op1_ids, op2_ids;
    for (std::uint32_t id = 0; id < n; ++id) {
      if (rng() % 4 == 0) base_ids.insert(id);
      if (rng() % 5 == 0) op1_ids.insert(id);
      if (rng() % 7 == 0) op2_ids.insert(id);
    }
    base_ids.insert(0);
    const RunSetPtr base = from_ids(base_ids);
    const RunSetPtr op1 = from_ids(op1_ids);
    const RunSetPtr op2 = from_ids(op2_ids);
    const std::uint32_t s1 = rng() % n, s2 = rng() % n;

    const RunSetPtr got = support::union_shifted(
        *base, {ShiftedSet{op1.get(), s1}, ShiftedSet{op2.get(), s2}}, n);

    std::set<std::uint32_t> want = base_ids;
    for (std::uint32_t id : op1_ids) want.insert((id + s1) % n);
    for (std::uint32_t id : op2_ids) want.insert((id + s2) % n);
    ASSERT_EQ(ids_of(*got), want) << "iter " << iter;
    EXPECT_EQ(got->count(), want.size());
  }
}

TEST(RunSet, DifferenceMatchesSetOracle) {
  std::mt19937 rng(11);
  const std::uint32_t n = 200;
  for (int iter = 0; iter < 50; ++iter) {
    std::set<std::uint32_t> a_ids, b_ids;
    for (std::uint32_t id = 0; id < n; ++id) {
      if (rng() % 3 == 0) a_ids.insert(id);
      if (rng() % 3 == 0) b_ids.insert(id);
    }
    const RunSetPtr got = support::difference(*from_ids(a_ids),
                                              *from_ids(b_ids));
    std::set<std::uint32_t> want;
    for (std::uint32_t id : a_ids) {
      if (b_ids.count(id) == 0) want.insert(id);
    }
    ASSERT_EQ(ids_of(*got), want) << "iter " << iter;
  }
}

TEST(RunSet, DifferenceWithSelfIsTheSharedEmptySet) {
  const RunSetPtr a = from_ids({1, 2, 3, 50});
  const RunSetPtr d = support::difference(*a, *a);
  EXPECT_TRUE(d->empty());
  EXPECT_EQ(d.get(), RunSet::empty_set().get());  // canonical instance
}

TEST(RunSet, ShiftedPairBitsMatchesPerIdLoop) {
  std::mt19937 rng(13);
  const std::uint32_t n = 300;
  for (int iter = 0; iter < 20; ++iter) {
    std::set<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < n; ++id) {
      if (rng() % 3 == 0) ids.insert(id);
    }
    const std::uint32_t rot = rng() % n;
    std::uint64_t brute = 0;
    for (std::uint32_t id : ids) {
      brute += field_bits((id + rot) % n) + 1;
    }
    EXPECT_EQ(support::shifted_pair_bits(*from_ids(ids), rot, n), brute)
        << "iter " << iter << " rot " << rot;
  }
}

TEST(RunSet, ContainsAgreesWithOracle) {
  const RunSetPtr s = from_ids({0, 1, 5, 6, 7, 63, 64, 199});
  for (std::uint32_t id = 0; id < 205; ++id) {
    const bool want = id <= 1 || (id >= 5 && id <= 7) || id == 63 ||
                      id == 64 || id == 199;
    EXPECT_EQ(s->contains(id), want) << id;
  }
  EXPECT_FALSE(RunSet::empty_set()->contains(0));
}

}  // namespace
}  // namespace omx
