// The message plane's stitched wire (sim/message_plane.h) and the
// adversary's bulk omission (sim/adversary.h): segment stitching reproduces
// the serial wire exactly, every receiver's delivered sequence equals the
// wire's surviving logical messages addressed to it (serial and
// pool-sharded index builds, mixed and all-multicast wires), the link walk
// and the dropped-link walk equal brute-force filters of the whole-wire
// walk, drop_links offers its predicate exactly the walk's candidates in
// ascending index order, the adversary's read walk drives a content-based
// omission, and the thread pool's per-lane busy counters actually tick.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <random>
#include <set>
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

using QueueFn = void (*)(SendLog<Pay>&, std::uint32_t, std::uint32_t);

// The same wire staged across `kLanes` shard arenas and stitched.
void build_stitched(MessagePlane<Pay>& plane, std::vector<SendLog<Pay>>& stage,
                    std::uint32_t round = 0, QueueFn queue = queue_sends) {
  plane.begin_round(round);
  stage.assign(kLanes, SendLog<Pay>(kN));
  std::vector<SendLog<Pay>*> ptrs;
  for (unsigned w = 0; w < kLanes; ++w) {
    stage[w].set_round(round);
    queue(stage[w], kN * w / kLanes, kN * (w + 1) / kLanes);
    ptrs.push_back(&stage[w]);
  }
  plane.stitch(ptrs);
  plane.seal();
}

// Every group shape the link walk handles, per process: a unicast
// (every 5th addressed to the sender itself), a kBroadcast (odd senders) or
// kBroadcastSelf (even senders), and a kList of kListLen receivers (every
// 3rd list names its own sender first).
constexpr std::uint32_t kListLen = 6;

void queue_every_shape(SendLog<Pay>& log, std::uint32_t lo,
                       std::uint32_t hi) {
  for (std::uint32_t p = lo; p < hi; ++p) {
    log.send(p, p % 5 == 0 ? p : (p * 7 + 3) % kN, Pay{p});
    log.broadcast(p, Pay{p + 1}, /*include_self=*/p % 2 == 0);
    std::vector<ProcessId> list;
    for (std::uint32_t d = 0; d < kListLen; ++d) {
      list.push_back((p + 5 * d + (p % 3 == 0 ? 0 : 1)) % kN);
    }
    log.multicast(p, list, Pay{p + 2});
  }
}

// First logical index of every group queue_every_shape() produces.
std::vector<std::size_t> group_starts_every_shape() {
  std::vector<std::size_t> starts;
  std::size_t base = 0;
  for (std::uint32_t p = 0; p < kN; ++p) {
    const std::size_t bcast = p % 2 == 0 ? kN : kN - 1;
    starts.push_back(base);
    starts.push_back(base + 1);
    starts.push_back(base + 1 + bcast);
    base += 1 + bcast + kListLen;
  }
  return starts;
}

using Link = std::tuple<std::uint64_t, ProcessId, ProcessId>;

ProcessSet set_of(std::initializer_list<ProcessId> ids) {
  ProcessSet s(kN);
  for (const ProcessId p : ids) s.insert(p);
  return s;
}

ProcessSet random_set(std::mt19937& gen, double density) {
  ProcessSet s(kN);
  std::bernoulli_distribution coin(density);
  for (ProcessId p = 0; p < kN; ++p) {
    if (coin(gen)) s.insert(p);
  }
  return s;
}

ProcessSet full_set() {
  ProcessSet s(kN);
  for (ProcessId p = 0; p < kN; ++p) s.insert(p);
  return s;
}

// The brute-force reference: every message on the wire, filtered.
std::vector<Link> links_by_filter(const MessagePlane<Pay>& plane,
                                  const ProcessSet& senders,
                                  const ProcessSet& receivers) {
  std::vector<Link> out;
  plane.visit_wire(
      [&](std::uint64_t i, ProcessId from, ProcessId to, const Pay&) {
        if (senders.contains(from) || receivers.contains(to)) {
          out.emplace_back(i, from, to);
        }
      });
  return out;
}

// The whole wire in walk order: (index, from, to, payload, payload bits),
// bits measured by bit_size.
using WireMsg =
    std::tuple<std::uint64_t, ProcessId, ProcessId, Pay, std::uint64_t>;

std::vector<WireMsg> wire_of(const MessagePlane<Pay>& plane) {
  std::vector<WireMsg> out;
  plane.visit_wire(
      [&](std::uint64_t i, ProcessId from, ProcessId to, const Pay& pay) {
        out.emplace_back(i, from, to, pay, bit_size(pay));
      });
  return out;
}

std::vector<Link> links_by_walk(const MessagePlane<Pay>& plane,
                                const ProcessSet& senders,
                                const ProcessSet& receivers) {
  std::vector<Link> out;
  plane.visit_links(senders, receivers,
                    [&](std::uint64_t i, ProcessId from, ProcessId to) {
                      out.emplace_back(i, from, to);
                    });
  return out;
}

// (senders, receivers) pairs: empty, single, random and full sets, mostly
// with S != R.
std::vector<std::pair<ProcessSet, ProcessSet>> link_walk_cases() {
  std::mt19937 gen(20240507);
  std::vector<std::pair<ProcessSet, ProcessSet>> cases;
  cases.emplace_back(ProcessSet{}, ProcessSet{});
  cases.emplace_back(ProcessSet(kN), ProcessSet(kN));
  cases.emplace_back(set_of({0}), ProcessSet{});
  cases.emplace_back(ProcessSet{}, set_of({0}));
  cases.emplace_back(set_of({kN - 1}), set_of({0}));
  cases.emplace_back(set_of({5}), set_of({5}));
  cases.emplace_back(set_of({3, 9, 30}), set_of({2, 9, 33, kN - 1}));
  for (int k = 0; k < 6; ++k) {
    const double density = 0.03 + 0.15 * k;
    cases.emplace_back(random_set(gen, density), random_set(gen, density));
    cases.emplace_back(random_set(gen, density), ProcessSet{});
    cases.emplace_back(ProcessSet{}, random_set(gen, density));
  }
  cases.emplace_back(full_set(), ProcessSet{});
  cases.emplace_back(ProcessSet{}, full_set());
  cases.emplace_back(full_set(), full_set());
  cases.emplace_back(full_set(), set_of({7}));
  return cases;
}

TEST(Stitch, ReproducesSerialWireExactly) {
  MessagePlane<Pay> serial(kN);
  build_serial(serial);
  MessagePlane<Pay> stitched(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(stitched, stage);

  ASSERT_EQ(stitched.num_messages(), serial.num_messages());
  ASSERT_GE(serial.num_messages(), MessagePlane<Pay>::kParallelGrain);
  const std::vector<WireMsg> want = wire_of(serial);
  ASSERT_EQ(want.size(), serial.num_messages());
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(std::get<0>(want[k]), k) << "the walk skipped an index";
  }
  EXPECT_EQ(wire_of(stitched), want);
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
  plane.visit_wire(
      [&](std::uint64_t i, ProcessId from, ProcessId to, const Pay& pay) {
        if (!plane.dropped(i)) ref[to].emplace_back(from, pay);
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

TEST(LinkWalk, VisitLinksEqualsTheWholeWireFilter) {
  MessagePlane<Pay> plane(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(plane, stage, 0, queue_every_shape);
  for (const auto& [senders, receivers] : link_walk_cases()) {
    const auto want = links_by_filter(plane, senders, receivers);
    EXPECT_EQ(links_by_walk(plane, senders, receivers), want)
        << "|S|=" << senders.size() << " |R|=" << receivers.size();
  }
  // The full sender set visits the whole wire.
  EXPECT_EQ(links_by_walk(plane, full_set(), ProcessSet{}).size(),
            plane.num_messages());
}

TEST(LinkWalk, VisitLinksRefusesASetOfAnotherSystem) {
  MessagePlane<Pay> plane(kN);
  build_serial(plane);
  ProcessSet other(kN + 1);
  other.insert(0);
  EXPECT_THROW(plane.visit_links(other, ProcessSet{},
                                 [](std::uint64_t, ProcessId, ProcessId) {}),
               InvariantError);
}

TEST(LinkWalk, ProcessSetKeepsMaskAndSortedIdsInStep) {
  ProcessSet s(8);
  EXPECT_TRUE(s.insert(5));
  EXPECT_TRUE(s.insert(1));
  EXPECT_TRUE(s.insert(7));
  EXPECT_FALSE(s.insert(5));   // already a member
  EXPECT_FALSE(s.insert(8));   // outside the universe
  EXPECT_FALSE(s.contains(8));
  EXPECT_EQ(std::vector<ProcessId>(s.ids().begin(), s.ids().end()),
            (std::vector<ProcessId>{1, 5, 7}));
  for (ProcessId p = 0; p < 8; ++p) {
    EXPECT_EQ(s.contains(p), s.mask()[p] != 0) << p;
  }
  s.reset(8);
  EXPECT_TRUE(s.empty());
  for (ProcessId p = 0; p < 8; ++p) EXPECT_FALSE(s.contains(p)) << p;
}

TEST(LinkWalk, DroppedLinkWalkMatchesIndexedEndpoints) {
  MessagePlane<Pay> plane(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(plane, stage, 0, queue_every_shape);
  const std::size_t mm = plane.num_messages();
  // Both sides of every group boundary, plus both ends of the wire.
  for (const std::size_t b : group_starts_every_shape()) {
    ASSERT_LT(b, mm);
    plane.mark_dropped(b);
    if (b > 0) plane.mark_dropped(b - 1);
  }
  plane.mark_dropped(mm - 1);
  std::vector<Link> want;
  plane.visit_wire(
      [&](std::uint64_t i, ProcessId from, ProcessId to, const Pay&) {
        if (plane.dropped(i)) want.emplace_back(i, from, to);
      });
  std::vector<Link> got;
  plane.for_each_dropped_link(
      [&](std::size_t i, ProcessId from, ProcessId to) {
        got.emplace_back(i, from, to);
      });
  EXPECT_GT(got.size(), 3 * kN);
  EXPECT_EQ(got, want);
}

TEST(LinkWalk, DroppedLinkWalkCoversAFullyDroppedWire) {
  MessagePlane<Pay> plane(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(plane, stage, 0, queue_every_shape);
  for (std::size_t i = 0; i < plane.num_messages(); ++i) plane.mark_dropped(i);
  const std::vector<Link> want =
      links_by_filter(plane, full_set(), ProcessSet{});
  ASSERT_EQ(want.size(), plane.num_messages());
  std::vector<Link> got;
  plane.for_each_dropped_link(
      [&](std::size_t i, ProcessId from, ProcessId to) {
        got.emplace_back(i, from, to);
      });
  EXPECT_EQ(got, want);
}

// drop_links with corrupted endpoints on a serial and a stitched wire drops
// exactly what a whole-wire filter with the same predicate selects.
TEST(BulkAdversary, DropLinksMatchesWholeWireBitset) {
  const std::uint32_t kT = 8;
  const auto pred = [](ProcessId from, ProcessId to) {
    return (from < 4 || to < 4) && (from + to) % 3 != 0;
  };
  auto run = [&](MessagePlane<Pay>& plane) {
    FaultState faults(kN, kT);
    for (ProcessId p = 0; p < 4; ++p) faults.corrupt(p);
    AdversaryContext<Pay> ctx(0, &plane, &faults);
    ctx.drop_links(ctx.corrupted(), ctx.corrupted(), pred);
  };

  MessagePlane<Pay> serial(kN);
  build_serial(serial);
  run(serial);
  MessagePlane<Pay> stitched(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(stitched, stage);
  run(stitched);

  ASSERT_EQ(stitched.num_messages(), serial.num_messages());
  std::size_t want = 0;
  serial.visit_wire(
      [&](std::uint64_t i, ProcessId from, ProcessId to, const Pay&) {
        const bool drop = from != to && pred(from, to);
        want += drop ? 1 : 0;
        ASSERT_EQ(serial.dropped(i), drop) << "index " << i;
        ASSERT_EQ(stitched.dropped(i), drop) << "index " << i;
      });
  EXPECT_GT(want, 0u);
  EXPECT_EQ(serial.num_dropped(), want);
  EXPECT_EQ(stitched.num_dropped(), want);
}

// A predicate that selects a link between two non-corrupted processes is
// refused, naming the lowest-index such message.
TEST(BulkAdversary, DropLinksRejectsIllegalMatch) {
  MessagePlane<Pay> plane(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(plane, stage);
  FaultState faults(kN, 2);
  faults.corrupt(0);
  ProcessSet senders(kN);
  for (ProcessId p = 10; p < kN; ++p) senders.insert(p);
  std::string want;
  plane.visit_wire(
      [&](std::uint64_t, ProcessId from, ProcessId to, const Pay&) {
        if (want.empty() && from >= 10 && to >= 10 && from != to) {
          want = std::to_string(from) + "->" + std::to_string(to) + " ";
        }
      });
  ASSERT_FALSE(want.empty());
  AdversaryContext<Pay> ctx(0, &plane, &faults);
  try {
    ctx.drop_links(senders, ProcessSet{}, [](ProcessId from, ProcessId to) {
      return from >= 10 && to >= 10;
    });
    FAIL() << "an honest-honest drop was accepted";
  } catch (const AdversaryViolation& e) {
    EXPECT_NE(std::string(e.what()).find("message " + want),
              std::string::npos)
        << e.what() << " (want " << want << ")";
  }
}

// pred is offered exactly the walk's non-self candidates, in ascending
// index order — the order a strategy's per-candidate coin draws follow.
TEST(BulkAdversary, DropLinksOffersCandidatesInAscendingIndexOrder) {
  MessagePlane<Pay> plane(kN);
  std::vector<SendLog<Pay>> stage;
  for (const auto& [senders, receivers] : link_walk_cases()) {
    build_stitched(plane, stage, 0, queue_every_shape);  // fresh drop set
    // Corrupt every process in either set, so every candidate is a legal
    // drop and pred's answer alone decides.
    FaultState faults(kN, kN);
    for (const ProcessId p : senders.ids()) faults.corrupt(p);
    for (const ProcessId p : receivers.ids()) faults.corrupt(p);
    std::vector<std::pair<ProcessId, ProcessId>> want_calls;
    std::vector<std::uint64_t> want_drops;
    for (const auto& [i, from, to] :
         links_by_filter(plane, senders, receivers)) {
      if (from == to) continue;
      want_calls.emplace_back(from, to);
      if (want_calls.size() % 3 != 0) want_drops.push_back(i);
    }
    AdversaryContext<Pay> ctx(0, &plane, &faults);
    std::vector<std::pair<ProcessId, ProcessId>> calls;
    ctx.drop_links(senders, receivers, [&](ProcessId from, ProcessId to) {
      calls.emplace_back(from, to);
      return calls.size() % 3 != 0;
    });
    EXPECT_EQ(calls, want_calls)
        << "|S|=" << senders.size() << " |R|=" << receivers.size();
    std::vector<std::uint64_t> drops;
    for (std::size_t i = 0; i < plane.num_messages(); ++i) {
      if (plane.dropped(i)) drops.push_back(i);
    }
    EXPECT_EQ(drops, want_drops)
        << "|S|=" << senders.size() << " |R|=" << receivers.size();
  }
}

// The adversary's read walk on a stitched wire of every group shape: one
// message per logical index in visit_wire order, one payload address per
// stored slot (the copies of a send call share it). A content-based
// omission walks first and then replays its selection through drop_links
// with a stateful predicate; it drops exactly the links the walk selected.
TEST(BulkAdversary, ContextReadWalkDrivesAContentOmission) {
  MessagePlane<Pay> plane(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(plane, stage, 0, queue_every_shape);
  FaultState faults(kN, kN);
  for (ProcessId p = 0; p < kN; p += 3) faults.corrupt(p);
  AdversaryContext<Pay> ctx(0, &plane, &faults);

  using Seen = std::tuple<ProcessId, ProcessId, const Pay*>;
  std::vector<Seen> seen;
  ctx.for_each_message([&](ProcessId from, ProcessId to, const Pay& pay) {
    seen.emplace_back(from, to, &pay);
  });
  std::vector<Seen> want;
  plane.visit_wire(
      [&](std::uint64_t, ProcessId from, ProcessId to, const Pay& pay) {
        want.emplace_back(from, to, &pay);
      });
  ASSERT_EQ(seen.size(), plane.num_messages());
  EXPECT_EQ(seen, want);

  // Every message of a group carries its group's payload address, and no
  // two groups share one: 3 send calls, so 3 stored slots, per process.
  std::vector<std::size_t> starts = group_starts_every_shape();
  starts.push_back(seen.size());
  std::set<const Pay*> slots;
  for (std::size_t g = 0; g + 1 < starts.size(); ++g) {
    const Pay* const slot = std::get<2>(seen[starts[g]]);
    slots.insert(slot);
    for (std::size_t i = starts[g]; i < starts[g + 1]; ++i) {
      ASSERT_EQ(std::get<2>(seen[i]), slot) << "index " << i;
    }
  }
  EXPECT_EQ(slots.size(), 3u * kN);

  // Select by content: odd payloads on the links drop_links will offer
  // (a corrupted endpoint, not a self-delivery), in walk order.
  std::vector<std::pair<ProcessId, ProcessId>> offered;
  std::vector<bool> selected;
  ctx.for_each_message([&](ProcessId from, ProcessId to, const Pay& pay) {
    if (from == to || !(faults.is_corrupted(from) || faults.is_corrupted(to))) {
      return;
    }
    offered.emplace_back(from, to);
    selected.push_back(pay.v % 2 == 1);
  });
  std::size_t next = 0;
  ctx.drop_links(ctx.corrupted(), ctx.corrupted(),
                 [&](ProcessId from, ProcessId to) {
                   EXPECT_LT(next, offered.size());
                   if (next >= offered.size()) return false;
                   EXPECT_EQ(offered[next], std::make_pair(from, to))
                       << "candidate " << next;
                   return static_cast<bool>(selected[next++]);
                 });
  EXPECT_EQ(next, offered.size());

  std::size_t want_drops = 0;
  plane.visit_wire(
      [&](std::uint64_t i, ProcessId from, ProcessId to, const Pay& pay) {
        const bool drop =
            from != to && pay.v % 2 == 1 &&
            (faults.is_corrupted(from) || faults.is_corrupted(to));
        want_drops += drop ? 1 : 0;
        EXPECT_EQ(plane.dropped(i), drop) << "index " << i;
      });
  EXPECT_GT(want_drops, 0u);
  EXPECT_EQ(ctx.num_dropped(), want_drops);
}

TEST(StreamedDelivery, AllMulticastWireTakesTheListOnlyPathCorrectly) {
  // Every send is a kList multicast (a graph-restricted machine's wire):
  // receivers walk only their own index entries, no broadcast list.
  MessagePlane<Pay> plane(kN);
  plane.begin_round(0);
  for (std::uint32_t p = 0; p < kN; ++p) {
    std::vector<ProcessId> neigh;
    for (std::uint32_t d = 1; d <= 20; ++d) neigh.push_back((p + d) % kN);
    plane.log().multicast(p, neigh, Pay{p});
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
    for (int i = 0; i < 2'000'000; ++i) x = x + i;
  });
  for (unsigned w = 0; w < kLanes; ++w) {
    EXPECT_GT(pool.lane_busy_ns(w), 0u) << "lane " << w;
  }
}

}  // namespace
}  // namespace omx::sim
