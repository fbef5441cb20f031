// Flat-buffer message plane: the engine's zero-allocation delivery substrate.
//
// The send side is factored into SendLog — a flat (fanout groups, payload
// arena) pair that both the plane itself (serial compute phase) and the
// engine's per-worker staging outboxes (sharded compute phase) use. Per
// round the plane stores:
//   * a payload arena — each *distinct* payload value is stored exactly
//     once, so a broadcast of one value to n-1 receivers costs one payload
//     slot, period;
//   * a group list — one POD entry per send *call* (unicast, broadcast, or
//     multicast), carrying the logical-index base of its fan-out. The
//     adversary and the metrics always observe *logical* point-to-point
//     messages: group g expands to fanout(g) consecutive logical indices
//     [base, base + fanout), in exactly the receiver order the equivalent
//     unicast loop would have produced — so a broadcast to n-1 receivers
//     costs O(1) staging, and a CSR-restricted multicast costs O(degree)
//     (its receiver list is copied once into a shared CSR-style arena);
//   * a word-packed drop set (`drops_`) marking adversary omissions by
//     logical index.
//
// Sharded rounds produce one private SendLog per worker; stitch() registers
// them as wire *segments* in shard (== ascending process id) order — no
// payloads or receiver lists are moved or copied. seal() then builds a flat
// per-group wire index (global logical bases + direct payload/receiver
// pointers into the segments), so the plane's logical message sequence is
// byte-identical to a serial round.
//
// The sealed wire is read four ways, each a walk in ascending logical
// index; there is no per-index accessor:
//   * visit_wire() — every message with its payload (wiretaps, the referee);
//   * visit_links(S, R) — only the messages sent by S or addressed to R. An
//     omission may only touch a link of a corrupted process, and at most t
//     of n are corrupted, so this is the adversary's omission walk
//     (AdversaryContext::drop_links): a group from a sender in S expands in
//     full; a broadcast from any other sender jumps straight to the ranks
//     of R's members (ProcessSet keeps them as a sorted id list next to its
//     byte mask); a unicast costs one mask test and a list one test per
//     entry;
//   * for_each_dropped_link() — the drop bitset with a group cursor, handing
//     the engine's legality audit each omitted message's endpoints;
//   * deliver() — accounting, trace emission and the receivers' index.
//
// Delivery never copies a payload. It does the aggregate accounting (sealed
// message count, cached wire bits, drop popcount — identical totals to a
// per-message walk), emits trace events in logical-index order when a
// trace sink is attached, and then indexes the sealed wire for the next
// round's receivers:
//   * unicast and kList messages go into a per-receiver index — a stable
//     counting sort of (logical index, sender, payload pointer) entries,
//     sharded by receiver range on the pool (lane w owns receivers
//     [n·w/L, n·(w+1)/L), so the index is identical at every lane count);
//   * broadcast groups go into a compact per-round list, since every
//     receiver but (possibly) the sender hears them.
// A receiver's walk (stream_inbox() / RoundIo::for_each_in()) merges its
// own index entries with the broadcast list by logical index: O(its own
// entries + broadcasts), so graph-restricted machines pay O(Δ) per
// receiver and an n-broadcast round costs O(n) per receiver with no n²
// inbox buffer ever built. The own log's contents are swapped into a front
// buffer so payloads stay readable while the next round's sends accumulate.
//
// All buffers have round-persistent capacity: after warm-up, a round
// allocates only whatever the payloads themselves allocate internally.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/message.h"
#include "sim/metrics.h"
#include "support/check.h"
#include "support/thread_pool.h"
#include "trace/trace.h"

namespace omx::sim {

/// A set of process ids held two ways: a byte mask over the n-process
/// universe (one load per membership test) and the members in ascending id
/// order (MessagePlane::visit_links jumps straight to their broadcast
/// ranks). insert() keeps both in step and refuses ids outside the
/// universe, so a stray id can never index past the mask. A default-
/// constructed set is empty and fits any universe.
class ProcessSet {
 public:
  ProcessSet() = default;
  explicit ProcessSet(std::uint32_t n) : mask_(n, 0) {}

  /// Empty the set and re-target it at an n-process universe (capacity
  /// persists).
  void reset(std::uint32_t n) {
    if (mask_.size() == n) {
      for (const ProcessId p : ids_) mask_[p] = 0;
    } else {
      mask_.assign(n, 0);
    }
    ids_.clear();
  }

  /// Add p. Returns false, changing nothing, when p is already a member
  /// or lies outside the universe.
  bool insert(ProcessId p) {
    if (p >= mask_.size() || mask_[p] != 0) return false;
    mask_[p] = 1;
    ids_.insert(std::upper_bound(ids_.begin(), ids_.end(), p), p);
    return true;
  }

  bool contains(ProcessId p) const {
    return p < mask_.size() && mask_[p] != 0;
  }
  std::uint32_t universe() const {
    return static_cast<std::uint32_t>(mask_.size());
  }
  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  /// Members, ascending.
  std::span<const ProcessId> ids() const { return ids_; }
  /// Byte mask over the universe: mask()[p] != 0 iff p is a member.
  const std::uint8_t* mask() const { return mask_.data(); }

 private:
  std::vector<std::uint8_t> mask_;
  std::vector<ProcessId> ids_;
};

/// Word-packed omission flags (replaces the engine's old std::vector<bool>).
class DropSet {
 public:
  void reset(std::size_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
  }
  std::size_t size() const { return size_; }
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Number of set (dropped) indices — a word-popcount scan, so per-round
  /// omission tallies (adversary::Recorder) cost O(messages/64), not a
  /// payload rescan.
  std::size_t count() const {
    std::size_t c = 0;
    for (const std::uint64_t w : words_) {
      c += static_cast<std::size_t>(std::popcount(w));
    }
    return c;
  }

  /// Visit every set index in ascending order (word-at-a-time scan).
  template <class Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const auto b = static_cast<unsigned>(std::countr_zero(bits));
        fn((w << 6) + b);
        bits &= bits - 1;
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

template <class P>
class MessagePlane;

/// One round's send-side log: fan-out groups over a payload arena. The
/// plane owns one (the wire's first segment); each engine worker owns
/// another (its staging arena) which is stitched onto the wire by pointer
/// at the shard barrier. Capacity persists across clear(), so steady-state
/// rounds do not allocate.
template <class P>
class SendLog {
 public:
  /// Sentinel for multicast: no process is skipped.
  static constexpr ProcessId kNobody = UINT32_MAX;

  /// Fan-out shape of one send call.
  enum class Kind : std::uint8_t {
    kUnicast,        // one receiver (field a)
    kBroadcast,      // every process except the sender, ascending id
    kBroadcastSelf,  // every process including the sender, ascending id
    kList,           // receivers_[a, a + b), in list order
  };

  /// One send call. Logical messages [base, base + fanout) expand in the
  /// receiver order documented on Kind; `base` is the group's offset in
  /// this log's local logical-index space (the plane's wire index adds the
  /// segment base when the log is stitched onto the wire).
  struct Group {
    std::uint64_t base;
    ProcessId from;
    std::uint32_t payload;  // slot in the payload arena
    std::uint32_t a;        // receiver (kUnicast) or arena offset (kList)
    std::uint32_t b;        // list length (kList)
    Kind kind;
  };

  explicit SendLog(std::uint32_t n = 0) : n_(n) {}

  /// Re-target the log at an n-process system and drop its contents.
  void reset(std::uint32_t n) {
    n_ = n;
    clear();
  }

  /// Drop this round's contents; capacity persists.
  void clear() {
    groups_.clear();
    receivers_.clear();
    payloads_.clear();
    total_ = 0;
  }

  std::uint32_t num_processes() const { return n_; }

  /// Stamp the round this log is collecting for (failure-message context).
  void set_round(std::uint32_t round) { round_ = round; }

  void send(ProcessId from, ProcessId to, P payload) {
    OMX_CHECK(to < n_, "round " + std::to_string(round_) + ": process " +
                           std::to_string(from) +
                           " addressed a message to process " +
                           std::to_string(to) + ", outside the n=" +
                           std::to_string(n_) + " system");
    const std::uint32_t slot = stash(std::move(payload));
    groups_.push_back(Group{total_, from, slot, to, 0, Kind::kUnicast});
    total_ += 1;
  }

  /// One payload, fanned out to every process in id order (optionally
  /// including the sender itself). Logical messages and accounting are
  /// identical to the equivalent unicast loop.
  void broadcast(ProcessId from, P payload, bool include_self) {
    const std::uint32_t slot = stash(std::move(payload));
    const std::uint32_t fan = include_self ? n_ : n_ - 1;
    if (fan == 0) return;
    groups_.push_back(Group{total_, from, slot, 0, 0,
                            include_self ? Kind::kBroadcastSelf
                                         : Kind::kBroadcast});
    total_ += fan;
  }

  /// One payload, fanned out to the listed receivers in list order
  /// (`skip` is omitted where it appears; pass kNobody to keep all). The
  /// filtered list is copied once into the CSR-style receiver arena.
  void multicast(ProcessId from, std::span<const ProcessId> to, P payload,
                 ProcessId skip = kNobody) {
    const std::uint32_t slot = stash(std::move(payload));
    const auto offset = static_cast<std::uint64_t>(receivers_.size());
    OMX_CHECK(offset + to.size() <= UINT32_MAX,
              "multicast receiver arena exceeded 2^32 entries in one round");
    std::uint32_t len = 0;
    for (ProcessId q : to) {
      if (q == skip) continue;
      OMX_CHECK(q < n_, "round " + std::to_string(round_) + ": process " +
                            std::to_string(from) +
                            " multicast to process " + std::to_string(q) +
                            ", outside the n=" + std::to_string(n_) +
                            " system");
      receivers_.push_back(q);
      ++len;
    }
    if (len == 0) return;  // nothing on the wire (matches the unicast loop)
    groups_.push_back(Group{total_, from,  slot,
                            static_cast<std::uint32_t>(offset), len,
                            Kind::kList});
    total_ += len;
  }

 private:
  friend class MessagePlane<P>;

  std::uint32_t stash(P&& payload) {
    payloads_.push_back(std::move(payload));
    return static_cast<std::uint32_t>(payloads_.size() - 1);
  }

  std::uint32_t n_;
  std::uint32_t round_ = 0;
  std::uint64_t total_ = 0;  // logical messages queued so far
  std::vector<Group> groups_;
  std::vector<ProcessId> receivers_;  // kList fan-out lists, CSR-style
  std::vector<P> payloads_;
};

template <class P>
class MessagePlane {
 public:
  /// Sentinel for multicast: no process is skipped.
  static constexpr ProcessId kNobody = SendLog<P>::kNobody;

  /// Below this many indexed messages the pool hand-off costs more than
  /// delivery's parallel index passes save; it falls back to the
  /// (bit-identical) serial build.
  static constexpr std::size_t kParallelGrain = 1024;

  explicit MessagePlane(std::uint32_t n)
      : n_(n), log_(n), front_log_(n), offsets_(n + 1, 0) {
    segs_.push_back(&log_);
  }

  // The wire index holds pointers into this plane's own log; moving the
  // plane would dangle them.
  MessagePlane(const MessagePlane&) = delete;
  MessagePlane& operator=(const MessagePlane&) = delete;

  std::uint32_t num_processes() const { return n_; }

  /// Start a round's send phase. Clears the wire's own segment (capacity
  /// persists) and detaches any stitched shard segments; the messages the
  /// previous round delivered stay readable until seal().
  /// The round number stamps failure messages and guards against
  /// wrong-round injection.
  void begin_round(std::uint32_t round = 0) {
    round_ = round;
    log_.clear();
    log_.set_round(round);
    segs_.assign(1, &log_);
    sealed_ = 0;
  }

  /// Round currently on the wire (as stamped by begin_round).
  std::uint32_t round() const { return round_; }

  // --- send side (computation phase) ---

  /// The wire's own send log — the serial compute phase writes through it.
  SendLog<P>& log() { return log_; }

  /// Stitch the workers' staging arenas onto the wire as segments, in the
  /// order given — which must be ascending shard order: each shard steps
  /// its processes in ascending id order, so segment concatenation *is* id
  /// order and the logical message sequence matches a serial round exactly.
  /// Nothing is copied; the shard logs must stay untouched until the next
  /// round's computation phase has read what this round delivered.
  void stitch(std::span<SendLog<P>* const> shards) {
    for (SendLog<P>* s : shards) {
      OMX_CHECK(s->n_ == n_,
                "round " + std::to_string(round_) +
                    ": staged log targets a different system (staged n=" +
                    std::to_string(s->n_) + ", wire n=" + std::to_string(n_) +
                    ")");
      segs_.push_back(s);
    }
  }

  // --- the sealed wire (adversary phase) ---

  /// Messages on the wire right now (live sum over all segments; the walks
  /// below additionally require seal()).
  std::size_t num_messages() const {
    std::uint64_t total = 0;
    for (const SendLog<P>* s : segs_) total += s->total_;
    return static_cast<std::size_t>(total);
  }

  /// End the send phase: build the flat wire index over all segments
  /// (global logical bases, direct payload/receiver pointers), size the
  /// drop set, and compute the bit-size cache — once per payload *slot*,
  /// so a broadcast's size is measured once, not n times. From here until
  /// delivery, the wire's contents are frozen — the adversary may omit
  /// messages, never add them — which is what makes the cache safe to
  /// share between the adversary phase (Recorder, wiretaps), trace
  /// emission and delivery accounting.
  void seal() {
    wire_.clear();
    payload_bits_.clear();
    std::uint64_t base = 0;
    std::uint32_t pbase = 0;
    for (const SendLog<P>* s : segs_) {
      for (const typename SendLog<P>::Group& g : s->groups_) {
        const ProcessId* recs = g.kind == SendLog<P>::Kind::kList
                                    ? s->receivers_.data() + g.a
                                    : nullptr;
        wire_.push_back(WireGroup{base + g.base,
                                  s->payloads_.data() + g.payload, recs,
                                  g.from, pbase + g.payload, g.a, g.b,
                                  g.kind});
      }
      for (const P& p : s->payloads_) payload_bits_.push_back(bit_size(p));
      base += s->total_;
      pbase += static_cast<std::uint32_t>(s->payloads_.size());
    }
    sealed_ = static_cast<std::size_t>(base);
    drops_.reset(sealed_);
    wire_bits_ = 0;
    for (const WireGroup& g : wire_) {
      wire_bits_ += static_cast<std::uint64_t>(fanout(g)) *
                    payload_bits_[g.pslot];
    }
  }

  /// Total bits on the wire this round, dropped or not (valid after seal()).
  std::uint64_t wire_bits() const { return wire_bits_; }

  /// Number of messages marked dropped so far.
  std::size_t num_dropped() const { return drops_.count(); }

  void mark_dropped(std::size_t i) { drops_.set(i); }
  bool dropped(std::size_t i) const { return drops_.test(i); }

  /// Visit every omitted message in ascending logical index with its
  /// endpoints: fn(idx, from, to). A group cursor advances through the
  /// wire index alongside the drop bitset, so the walk costs O(groups +
  /// drops); the engine's legality audit runs on it. Indices past the
  /// sealed wire are not on it and are skipped. Valid after seal().
  template <class Fn>
  void for_each_dropped_link(Fn&& fn) const {
    std::size_t g = 0;
    std::uint64_t end = 0;  // one past group g's last index
    drops_.for_each_set([&](std::size_t i) {
      if (i >= sealed_) return;
      while (end <= i) {
        end = wire_[g].base + fanout(wire_[g]);
        if (end <= i) ++g;
      }
      const WireGroup& w = wire_[g];
      fn(i, w.from, receiver_of(w, i - w.base));
    });
  }

  /// Visit, in ascending logical index, every message whose sender is in
  /// `senders` or whose receiver is in `receivers`: fn(idx, from, to). A
  /// group from a sender in `senders` expands in full; any other group
  /// yields only its receivers in `receivers` — a broadcast by jumping to
  /// their ranks through the sorted id list, a unicast by one mask test, a
  /// list by one test per entry. So the walk costs O(groups + visits +
  /// list entries), not O(messages): the adversary phase's only bulk walk
  /// (AdversaryContext::drop_links). Each set must be empty or span this
  /// plane's n processes. Valid after seal().
  template <class Fn>
  void visit_links(const ProcessSet& senders, const ProcessSet& receivers,
                   Fn&& fn) const {
    OMX_CHECK((senders.empty() || senders.universe() == n_) &&
                  (receivers.empty() || receivers.universe() == n_),
              "round " + std::to_string(round_) +
                  ": link walk over a process set of another system (n=" +
                  std::to_string(n_) + ")");
    using Kind = typename SendLog<P>::Kind;
    const std::uint8_t* const smask =
        senders.empty() ? nullptr : senders.mask();
    const std::uint8_t* const rmask =
        receivers.empty() ? nullptr : receivers.mask();
    if (smask == nullptr && rmask == nullptr) return;
    const std::span<const ProcessId> rids = receivers.ids();
    for (const WireGroup& g : wire_) {
      const ProcessId from = g.from;
      if (smask != nullptr && smask[from] != 0) {
        const std::uint32_t fan = fanout(g);
        for (std::uint32_t r = 0; r < fan; ++r) {
          fn(g.base + r, from, receiver_of(g, r));
        }
        continue;
      }
      if (rmask == nullptr) continue;
      switch (g.kind) {
        case Kind::kUnicast:
          if (rmask[g.a] != 0) fn(g.base, from, static_cast<ProcessId>(g.a));
          break;
        case Kind::kBroadcast:
          for (const ProcessId q : rids) {
            if (q != from) fn(g.base + q - (q > from ? 1 : 0), from, q);
          }
          break;
        case Kind::kBroadcastSelf:
          for (const ProcessId q : rids) fn(g.base + q, from, q);
          break;
        case Kind::kList:
          for (std::uint32_t r = 0; r < g.b; ++r) {
            if (rmask[g.recs[r]] != 0) fn(g.base + r, from, g.recs[r]);
          }
          break;
      }
    }
  }

  /// Visit every message on the wire in ascending logical index:
  /// fn(idx, from, to, payload). The copies of one send call share one
  /// payload reference. The read-only whole-wire walk (wiretaps, the
  /// referee, and the reference the link walk is tested against). Valid
  /// after seal().
  template <class Fn>
  void visit_wire(Fn&& fn) const {
    for (const WireGroup& g : wire_) {
      const std::uint32_t fan = fanout(g);
      for (std::uint32_t r = 0; r < fan; ++r) {
        fn(g.base + r, g.from, receiver_of(g, r), *g.payload);
      }
    }
  }

  // --- delivery (communication phase) ---

  /// Account every logical message (sent-but-omitted still costs bits: the
  /// sender spent them) and, with a trace sink, emit one kSend per logical
  /// message (and a kDrop after each omitted one) in wire order — the
  /// canonical order segment stitching already guarantees, so traced
  /// streams are bit-identical across thread counts. Then index the sealed
  /// wire for stream_inbox(): per-receiver entries for unicast and kList
  /// messages (counting sort in group order, sharded by receiver range
  /// when a pool is given) plus the round's broadcast list, and swap the
  /// own log into the front buffer. Payload and receiver pointers chase
  /// heap buffers, so swapping the own log's *contents* (and leaving
  /// stitched shard arenas in place — the engine double-banks them) keeps
  /// every pointer valid while log_ is reused for the next round.
  void deliver(Metrics& m, trace::TraceWriter* trace = nullptr,
               support::ThreadPool* pool = nullptr, unsigned lanes = 1) {
    check_sealed();
    m.messages += sealed_;
    m.comm_bits += wire_bits_;
    const std::size_t dropped = drops_.count();
    m.omitted += dropped;

    if (trace != nullptr) {
      for (const WireGroup& g : wire_) {
        const std::uint32_t fan = fanout(g);
        const std::uint64_t bits = payload_bits_[g.pslot];
        for (std::uint32_t r = 0; r < fan; ++r) {
          const std::uint64_t i = g.base + r;
          const ProcessId to = receiver_of(g, r);
          trace->emit(trace::Event{round_, trace::kSend, 0, g.from, to,
                                   bits});
          if (drops_.test(static_cast<std::size_t>(i))) {
            trace->emit(trace::Event{round_, trace::kDrop, 0, g.from, to, i});
          }
        }
      }
    }

    std::size_t indexed = 0;
    broadcasts_.clear();
    for (const WireGroup& g : wire_) {
      switch (g.kind) {
        case SendLog<P>::Kind::kUnicast: ++indexed; break;
        case SendLog<P>::Kind::kList: indexed += g.b; break;
        case SendLog<P>::Kind::kBroadcast:
          broadcasts_.push_back(Broadcast{g.base, g.payload, g.from, g.from});
          break;
        case SendLog<P>::Kind::kBroadcastSelf:
          broadcasts_.push_back(Broadcast{g.base, g.payload, g.from, kNobody});
          break;
      }
    }
    counts_.assign(n_, 0);
    const bool par = pool != nullptr && lanes > 1 && n_ >= lanes &&
                     indexed >= kParallelGrain;
    if (par) {
      pool->run([&](unsigned w) {
        count_range(dest_lo(w, lanes), dest_lo(w + 1, lanes));
      });
    } else {
      count_range(0, n_);
    }
    for (std::uint32_t p = 0; p < n_; ++p) {
      offsets_[p + 1] = offsets_[p] + counts_[p];
      counts_[p] = offsets_[p];  // reuse as scatter cursors
    }
    entries_.resize(indexed);
    if (par) {
      pool->run([&](unsigned w) {
        scatter_range(dest_lo(w, lanes), dest_lo(w + 1, lanes));
      });
    } else {
      scatter_range(0, n_);
    }

    std::swap(log_, front_log_);
    // In a fault-free round the per-message drop test is pure overhead —
    // and an expensive one: the indices a receiver probes are spread over
    // an n^2-bit set (33 MB at n=16384), so every test is a cache miss.
    // One flag turns all of them into a register compare.
    drops_any_ = dropped != 0;
  }

  /// Visit every message delivered to p by the most recent deliver() call,
  /// in global send order: fn(from, payload). Valid until the next seal()
  /// (the engine reads it in the following computation phase). p's own
  /// index entries are merged with the broadcast list by logical index.
  template <class Fn>
  void stream_inbox(ProcessId p, Fn&& fn) const {
    const Entry* e = entries_.data() + offsets_[p];
    const Entry* const e_end = entries_.data() + offsets_[p + 1];
    for (const Broadcast& b : broadcasts_) {
      for (; e != e_end && e->idx < b.base; ++e) visit_entry(*e, fn);
      if (p == b.skip) continue;
      const std::uint64_t idx = b.base + p - (p > b.skip ? 1 : 0);
      if (!drops_any_ || !drops_.test(static_cast<std::size_t>(idx))) {
        fn(b.from, *b.payload);
      }
    }
    for (; e != e_end; ++e) visit_entry(*e, fn);
  }

 private:
  /// One send call on the sealed wire: its group metadata flattened across
  /// segments — global logical base, global payload slot (bit-size cache),
  /// and direct pointers to its payload and (kList) receiver list inside
  /// the owning segment. Pointers stay valid from seal() until the owning
  /// log is next cleared, which is what lets delivered payloads outlive
  /// the swap in deliver().
  struct WireGroup {
    std::uint64_t base;
    const P* payload;
    const ProcessId* recs;  // kList receivers (segment arena + offset)
    ProcessId from;
    std::uint32_t pslot;    // global payload slot
    std::uint32_t a;        // receiver (kUnicast)
    std::uint32_t b;        // list length (kList)
    typename SendLog<P>::Kind kind;
  };

  /// A delivered unicast or kList message in a receiver's index.
  struct Entry {
    std::uint64_t idx;  // logical index (drop lookup + merge order)
    const P* payload;
    ProcessId from;
  };

  /// A delivered broadcast group (compact copy of its wire entry). Rank r
  /// of the fan-out goes to process r, shifted past `skip` (the sender of
  /// a kBroadcast, kNobody for kBroadcastSelf).
  struct Broadcast {
    std::uint64_t base;
    const P* payload;
    ProcessId from;
    ProcessId skip;
  };

  std::uint32_t fanout(const WireGroup& g) const {
    switch (g.kind) {
      case SendLog<P>::Kind::kUnicast: return 1;
      case SendLog<P>::Kind::kBroadcast: return n_ - 1;
      case SendLog<P>::Kind::kBroadcastSelf: return n_;
      case SendLog<P>::Kind::kList: return g.b;
    }
    return 0;
  }

  ProcessId receiver_of(const WireGroup& g, std::uint64_t rank) const {
    switch (g.kind) {
      case SendLog<P>::Kind::kUnicast:
        return static_cast<ProcessId>(g.a);
      case SendLog<P>::Kind::kBroadcast:
        return rank < g.from ? static_cast<ProcessId>(rank)
                             : static_cast<ProcessId>(rank + 1);
      case SendLog<P>::Kind::kBroadcastSelf:
        return static_cast<ProcessId>(rank);
      case SendLog<P>::Kind::kList:
        return g.recs[rank];
    }
    return 0;
  }

  ProcessId dest_lo(unsigned w, unsigned lanes) const {
    return static_cast<ProcessId>(std::uint64_t{n_} * w / lanes);
  }

  void check_sealed() const {
    // The wire was frozen at seal(); messages appearing afterwards would be
    // messages the adversary conjured into the round (an omission adversary
    // may suppress messages, never create or re-inject them).
    const std::size_t live = num_messages();
    if (live != sealed_) {
      throw AdversaryViolation(
          "round " + std::to_string(round_) + ": " +
          std::to_string(live - sealed_) +
          " message(s) appeared on the wire after the computation phase was "
          "sealed — an omission adversary cannot inject or re-route "
          "messages");
    }
  }

  /// Count unicast and kList entries addressed to [lo, hi) — lanes on
  /// disjoint ranges touch disjoint counts_ slots.
  void count_range(ProcessId lo, ProcessId hi) {
    for (const WireGroup& g : wire_) {
      if (g.kind == SendLog<P>::Kind::kUnicast) {
        if (g.a >= lo && g.a < hi) ++counts_[g.a];
      } else if (g.kind == SendLog<P>::Kind::kList) {
        for (std::uint32_t r = 0; r < g.b; ++r) {
          const ProcessId q = g.recs[r];
          if (q >= lo && q < hi) ++counts_[q];
        }
      }
    }
  }

  /// Scatter unicast and kList entries addressed to [lo, hi) through the
  /// per-receiver cursors. Group order is ascending logical index, so each
  /// receiver's entries land in send order at every lane count.
  void scatter_range(ProcessId lo, ProcessId hi) {
    for (const WireGroup& g : wire_) {
      if (g.kind == SendLog<P>::Kind::kUnicast) {
        if (g.a >= lo && g.a < hi) {
          entries_[counts_[g.a]++] = Entry{g.base, g.payload, g.from};
        }
      } else if (g.kind == SendLog<P>::Kind::kList) {
        for (std::uint32_t r = 0; r < g.b; ++r) {
          const ProcessId q = g.recs[r];
          if (q >= lo && q < hi) {
            entries_[counts_[q]++] = Entry{g.base + r, g.payload, g.from};
          }
        }
      }
    }
  }

  template <class Fn>
  void visit_entry(const Entry& e, Fn& fn) const {
    if (drops_any_ && drops_.test(static_cast<std::size_t>(e.idx))) return;
    fn(e.from, *e.payload);
  }

  std::uint32_t n_;
  std::uint32_t round_ = 0;
  SendLog<P> log_;                  // the wire's own segment (segs_[0])
  std::vector<SendLog<P>*> segs_;   // wire segments, in shard order
  std::vector<WireGroup> wire_;     // flat index over segs_, built at seal()
  DropSet drops_;
  std::size_t sealed_ = 0;          // wire size recorded at seal()
  std::uint64_t wire_bits_ = 0;     // total bits on the wire, cached at seal()
  std::vector<std::uint64_t> payload_bits_;  // per payload slot, at seal()

  // What the last deliver() handed to receivers, readable until the next
  // seal(): the delivered round's own-log contents (shard arenas stay
  // where the engine banked them), the per-receiver index and the
  // broadcast list. drops_ is only reset at seal(), so receivers test it
  // directly.
  SendLog<P> front_log_;
  bool drops_any_ = false;
  std::vector<std::size_t> offsets_;  // n + 1 entries; receiver p owns
                                      // entries_[offsets_[p], offsets_[p+1])
  std::vector<Entry> entries_;
  std::vector<Broadcast> broadcasts_;

  std::vector<std::size_t> counts_;  // index-build counts, then cursors
};

}  // namespace omx::sim
