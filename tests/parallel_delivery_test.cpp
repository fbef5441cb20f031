// The parallel delivery substrate (sim/message_plane.h) and the bulk
// adversary scan APIs (sim/adversary.h): segment stitching reproduces the
// serial wire exactly, every receiver's delivered sequence equals the
// wire's surviving logical messages addressed to it (serial and
// pool-sharded index builds, mixed and all-multicast wires),
// drop_where/scan_messages match the serial scans (including rng draw
// order), and the thread pool's per-lane busy counters actually tick.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/adversary.h"
#include "sim/message_plane.h"
#include "sim/metrics.h"
#include "sim/runner.h"
#include "support/thread_pool.h"

namespace omx::sim {
namespace {

struct Pay {
  std::uint32_t v = 0;
  std::uint64_t bit_size() const { return 32; }
  bool operator==(const Pay&) const = default;
};

constexpr std::uint32_t kN = 64;
constexpr unsigned kLanes = 4;

// Queue a deterministic mixed wire (unicasts + broadcasts + multicasts)
// through `log`, restricted to senders in [lo, hi). With [0, n) this is
// exactly the serial round; per-shard ranges stitched in order reproduce it.
// Every process also multicasts to 16 neighbours, so unicasts plus list
// entries (the per-receiver index) clear kParallelGrain on their own and
// a 4-lane delivery really shards the index build.
constexpr std::uint32_t kFanout = 16;
static_assert(kN * (kFanout + 1) >= MessagePlane<Pay>::kParallelGrain);

void queue_sends(SendLog<Pay>& log, std::uint32_t lo, std::uint32_t hi) {
  for (std::uint32_t p = lo; p < hi; ++p) {
    log.broadcast(p, Pay{p}, /*include_self=*/p % 2 == 0);
    log.send(p, (p + 7) % kN, Pay{p * 3 + 1});
    std::vector<ProcessId> neigh;
    for (std::uint32_t d = 0; d < kFanout; ++d) {
      neigh.push_back((p + 1 + 4 * d) % kN);
    }
    log.multicast(p, neigh, Pay{p * 5 + 2});
  }
}

// A sealed serial-reference plane over the wire above (n*n-scale logical
// messages, comfortably past kParallelGrain so the sharded paths engage).
void build_serial(MessagePlane<Pay>& plane, std::uint32_t round = 0) {
  plane.begin_round(round);
  queue_sends(plane.log(), 0, kN);
  plane.seal();
}

// The same wire staged across `kLanes` shard arenas and stitched.
void build_stitched(MessagePlane<Pay>& plane, std::vector<SendLog<Pay>>& stage,
                    std::uint32_t round = 0) {
  plane.begin_round(round);
  stage.assign(kLanes, SendLog<Pay>(kN));
  std::vector<SendLog<Pay>*> ptrs;
  for (unsigned w = 0; w < kLanes; ++w) {
    stage[w].set_round(round);
    queue_sends(stage[w], kN * w / kLanes, kN * (w + 1) / kLanes);
    ptrs.push_back(&stage[w]);
  }
  plane.stitch(ptrs);
  plane.seal();
}

TEST(Stitch, ReproducesSerialWireExactly) {
  MessagePlane<Pay> serial(kN);
  build_serial(serial);
  MessagePlane<Pay> stitched(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(stitched, stage);

  ASSERT_EQ(stitched.num_messages(), serial.num_messages());
  ASSERT_GE(serial.num_messages(), MessagePlane<Pay>::kParallelGrain);
  for (std::size_t i = 0; i < serial.num_messages(); ++i) {
    ASSERT_EQ(stitched.from(i), serial.from(i)) << "index " << i;
    ASSERT_EQ(stitched.to(i), serial.to(i)) << "index " << i;
    ASSERT_EQ(stitched.payload(i), serial.payload(i)) << "index " << i;
    ASSERT_EQ(stitched.payload_bits(i), serial.payload_bits(i));
  }
  EXPECT_EQ(stitched.wire_bits(), serial.wire_bits());
}

// Drop a deterministic subset (every 5th message) on both planes.
template <class Plane>
void drop_some(Plane& plane) {
  for (std::size_t i = 0; i < plane.num_messages(); i += 5) {
    plane.mark_dropped(i);
  }
}

using Delivered = std::vector<std::vector<std::pair<ProcessId, Pay>>>;

// What each receiver must see: the sealed wire's surviving logical
// messages addressed to it, in logical-index order.
Delivered reference_of(const MessagePlane<Pay>& plane) {
  Delivered ref(plane.num_processes());
  plane.visit_index_range(
      0, plane.num_messages(),
      [&](std::uint64_t i, ProcessId from, ProcessId to) {
        if (!plane.dropped(i)) ref[to].emplace_back(from, plane.payload(i));
      });
  return ref;
}

Delivered delivered_by(const MessagePlane<Pay>& plane) {
  Delivered got(plane.num_processes());
  for (ProcessId p = 0; p < plane.num_processes(); ++p) {
    plane.stream_inbox(p, [&](ProcessId from, const Pay& pay) {
      got[p].emplace_back(from, pay);
    });
  }
  return got;
}

// A mixed wire (unicast, broadcast, broadcast-with-self and list groups)
// with drops, delivered by the serial and the 4-lane index build.
TEST(ParallelDelivery, InboxesAndMetricsMatchSerial) {
  MessagePlane<Pay> serial(kN);
  build_serial(serial);
  drop_some(serial);
  const Delivered ref = reference_of(serial);
  const std::size_t sent = serial.num_messages();
  const std::size_t omitted = serial.num_dropped();
  Metrics ms;
  serial.deliver(ms);

  support::ThreadPool pool(kLanes);
  MessagePlane<Pay> par(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(par, stage);
  drop_some(par);
  Metrics mp;
  par.deliver(mp, nullptr, &pool, kLanes);

  EXPECT_EQ(ms.messages, sent);
  EXPECT_EQ(ms.omitted, omitted);
  EXPECT_EQ(mp.messages, ms.messages);
  EXPECT_EQ(mp.comm_bits, ms.comm_bits);
  EXPECT_EQ(mp.omitted, ms.omitted);
  const Delivered got_serial = delivered_by(serial);
  const Delivered got_par = delivered_by(par);
  for (ProcessId p = 0; p < kN; ++p) {
    EXPECT_EQ(got_serial[p], ref[p]) << "serial index, p" << p;
    EXPECT_EQ(got_par[p], ref[p]) << "4-lane index, p" << p;
  }
}

TEST(BulkAdversary, DropWhereMatchesSerialBitset) {
  const std::uint32_t kT = 8;
  auto run = [&](support::ThreadPool* pool, unsigned lanes,
                 MessagePlane<Pay>& plane) {
    FaultState faults(kN, kT);
    for (ProcessId p = 0; p < 4; ++p) faults.corrupt(p);
    AdversaryContext<Pay> ctx(0, &plane, &faults, pool, lanes);
    ctx.drop_where([](ProcessId from, ProcessId to) {
      return from < 4 || to < 4;
    });
  };

  MessagePlane<Pay> serial(kN);
  build_serial(serial);
  run(nullptr, 1, serial);

  support::ThreadPool pool(kLanes);
  MessagePlane<Pay> par(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(par, stage);
  run(&pool, kLanes, par);

  ASSERT_EQ(par.num_messages(), serial.num_messages());
  EXPECT_GT(serial.num_dropped(), 0u);
  EXPECT_EQ(par.num_dropped(), serial.num_dropped());
  for (std::size_t i = 0; i < serial.num_messages(); ++i) {
    ASSERT_EQ(par.dropped(i), serial.dropped(i)) << "index " << i;
  }
}

TEST(BulkAdversary, DropWhereRejectsIllegalMatchInParallel) {
  support::ThreadPool pool(kLanes);
  MessagePlane<Pay> plane(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(plane, stage);
  FaultState faults(kN, 2);
  faults.corrupt(0);
  AdversaryContext<Pay> ctx(0, &plane, &faults, &pool, kLanes);
  // Matches messages between non-corrupted endpoints: the legality firewall
  // must throw from the sharded scan exactly as it does serially.
  EXPECT_THROW(ctx.drop_where([](ProcessId from, ProcessId to) {
                 return from >= 10 && to >= 10;
               }),
               AdversaryViolation);
}

TEST(BulkAdversary, ScanMessagesConsumesInAscendingIndexOrder) {
  auto collect = [&](support::ThreadPool* pool, unsigned lanes,
                     MessagePlane<Pay>& plane) {
    FaultState faults(kN, 1);
    AdversaryContext<Pay> ctx(0, &plane, &faults, pool, lanes);
    std::vector<std::tuple<std::size_t, ProcessId, ProcessId>> hits;
    ctx.scan_messages(
        [](ProcessId from, ProcessId to) { return (from + to) % 7 == 0; },
        [&](std::size_t idx, ProcessId from, ProcessId to) {
          hits.emplace_back(idx, from, to);
        });
    return hits;
  };

  MessagePlane<Pay> serial(kN);
  build_serial(serial);
  const auto ref = collect(nullptr, 1, serial);
  ASSERT_FALSE(ref.empty());

  support::ThreadPool pool(kLanes);
  MessagePlane<Pay> par(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(par, stage);
  const auto got = collect(&pool, kLanes, par);

  EXPECT_EQ(got, ref);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(std::get<0>(got[i - 1]), std::get<0>(got[i]));
  }
}

TEST(StreamedDelivery, AllMulticastWireTakesTheListOnlyPathCorrectly) {
  // Every send is a kList multicast (a graph-restricted machine's wire):
  // receivers walk only their own index entries, no broadcast list.
  MessagePlane<Pay> plane(kN);
  plane.begin_round(0);
  for (std::uint32_t p = 0; p < kN; ++p) {
    std::vector<ProcessId> neigh;
    for (std::uint32_t d = 1; d <= 20; ++d) neigh.push_back((p + d) % kN);
    plane.multicast(p, neigh, Pay{p});
  }
  plane.seal();
  drop_some(plane);
  const Delivered ref = reference_of(plane);

  support::ThreadPool pool(kLanes);
  Metrics m;
  plane.deliver(m, nullptr, &pool, kLanes);
  EXPECT_EQ(m.messages, kN * 20u);
  EXPECT_EQ(m.omitted, (kN * 20u + 4) / 5);
  const Delivered got = delivered_by(plane);
  for (ProcessId p = 0; p < kN; ++p) {
    ASSERT_EQ(got[p].size(), ref[p].size()) << "p" << p;
    EXPECT_EQ(got[p], ref[p]) << "p" << p;
  }
}

TEST(ThreadPoolClocks, LaneBusyCountersTick) {
  support::ThreadPool pool(kLanes);
  for (unsigned w = 0; w < kLanes; ++w) {
    EXPECT_EQ(pool.lane_busy_ns(w), 0u);
  }
  pool.run([](unsigned) {
    volatile std::uint64_t x = 0;
    for (int i = 0; i < 2'000'000; ++i) x += i;
  });
  for (unsigned w = 0; w < kLanes; ++w) {
    EXPECT_GT(pool.lane_busy_ns(w), 0u) << "lane " << w;
  }
}

}  // namespace
}  // namespace omx::sim
