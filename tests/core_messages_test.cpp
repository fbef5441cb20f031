// Message bit accounting: the Õ(n²) communication claim rests on these.
#include <gtest/gtest.h>

#include "core/messages.h"

namespace omx::core {
namespace {

TEST(Messages, RelayPushBits) {
  // Fields billed at minimal width: stage 2 (2 bits) + child 5 (3) +
  // ones 10 (4) + zeros 0 (1).
  const RelayPush m{2, 5, 10, 0};
  EXPECT_EQ(m.bit_size(), 2u + 3u + 4u + 1u);
}

TEST(Messages, RelayAckIsTiny) {
  EXPECT_EQ(RelayAck{3}.bit_size(), 2u);
}

TEST(Messages, RelayShareBillsOnlyPresentChildren) {
  RelayShare none{1, 0, 0, 0, 0, 0};
  EXPECT_EQ(none.bit_size(), 1u + 2u);  // stage + 2 presence flags
  RelayShare left{1, 1, 7, 7, 0, 0};
  EXPECT_EQ(left.bit_size(), 1u + 2u + 3u + 3u);
  RelayShare both{1, 3, 7, 7, 1, 1};
  EXPECT_EQ(both.bit_size(), 1u + 2u + 3u + 3u + 1u + 1u);
}

TEST(Messages, SpreadHeartbeatIsOneBit) {
  EXPECT_EQ(SpreadMsg{}.bit_size(), 1u);
}

TEST(Messages, SpreadEntriesBillPerField) {
  SpreadMsg m;
  m.entries.push_back({3, 8, 1});   // 2 + 4 + 1
  m.entries.push_back({0, 0, 15});  // 1 + 1 + 4
  EXPECT_EQ(m.bit_size(), 1u + 7u + 6u);
}

TEST(Messages, DecisionIsOneBit) {
  EXPECT_EQ(DecisionMsg{1}.bit_size(), 1u);
}

TEST(Messages, InquireIsOneBit) {
  EXPECT_EQ(InquireMsg{}.bit_size(), 1u);
}

TEST(Messages, ValueBillsMinimalWidthPlusFraming) {
  EXPECT_EQ((ValueMsg{0}).bit_size(), 2u);
  EXPECT_EQ((ValueMsg{1}).bit_size(), 2u);
  EXPECT_EQ((ValueMsg{1023}).bit_size(), 11u);
}

TEST(Messages, GossipBits) {
  EXPECT_EQ(GossipMsg{-1}.bit_size(), 1u);
  EXPECT_EQ(GossipMsg{0}.bit_size(), 2u);
  EXPECT_EQ(GossipMsg{1}.bit_size(), 2u);
}

TEST(Messages, VariantDispatch) {
  Msg a = RelayAck{1};
  Msg b = SpreadMsg{};
  Msg c = DecisionMsg{0};
  EXPECT_EQ(bit_size(a), 1u);
  EXPECT_EQ(bit_size(b), 1u);
  EXPECT_EQ(bit_size(c), 1u);
}

TEST(Messages, CountsGrowLogarithmically) {
  // A count of n costs ~log2 n bits — the paper's O(log n)-bit counters.
  const RelayPush small{1, 0, 15, 15};
  const RelayPush big{1, 0, 1u << 20, 1u << 20};
  EXPECT_EQ(small.bit_size() + 2 * (21 - 4), big.bit_size());
}

}  // namespace
}  // namespace omx::core
