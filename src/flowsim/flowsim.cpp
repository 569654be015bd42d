#include "flowsim/flowsim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <utility>

#include "common/grid.hpp"
#include "wse/layout.hpp"

namespace wsr::flowsim {

using wse::Color;
using wse::FabricLayout;
using wse::Op;
using wse::OpKind;
using wse::RouteRule;
using wse::Schedule;

namespace {

struct Segment {
  i64 head = 0;  ///< cycle the first wavelet is available at its location.
  u32 len = 0;
  /// Pacing: wavelet i of the segment trails the head by i * rate cycles.
  /// 1 on a pristine fabric; crossing a throttled link raises it to the
  /// link's factor, and the stretch rides the segment downstream (a slow
  /// hop gates everything behind it — the first-order image of the
  /// cycle-level back-pressure).
  u32 rate = 1;
};

/// End of a segment list, and the head of an empty queue.
constexpr u32 kNil = UINT32_MAX;

/// A segment FIFO: the oldest and newest node of a singly linked list in
/// the engine's SegmentPool.
struct Queue {
  u32 head = kNil;  ///< oldest node; kNil when the queue is empty
  u32 tail = kNil;  ///< newest node; meaningless when the queue is empty

  bool empty() const { return head == kNil; }
};

/// The one arena behind every parked and ingress queue of an engine. Nodes
/// are linked by 32-bit index, and popped nodes go on a free list that the
/// next push reuses, so the arena only grows to the peak number of segments
/// in flight — a few per active lane, while most of a wafer's lanes hold
/// one segment at a time or none.
class SegmentPool {
 public:
  /// The oldest segment of a non-empty queue. The reference is invalidated
  /// by the next push (the arena may grow).
  Segment& front(const Queue& q) { return nodes_[q.head].seg; }

  void push(Queue& q, const Segment& seg) {
    u32 n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
      nodes_[n] = {seg, kNil};
    } else {
      n = static_cast<u32>(nodes_.size());
      WSR_ASSERT(n != kNil, "segment pool exhausted");
      nodes_.push_back({seg, kNil});
    }
    if (q.head == kNil) {
      q.head = n;
    } else {
      nodes_[q.tail].next = n;
    }
    q.tail = n;
  }

  void pop(Queue& q) {
    const u32 n = q.head;
    q.head = nodes_[n].next;
    nodes_[n].next = free_;
    free_ = n;
  }

 private:
  struct Node {
    Segment seg;
    u32 next = kNil;
  };
  std::vector<Node> nodes_;
  u32 free_ = kNil;  ///< head of the free list
};

// The engine advances PE programs *event-driven*: instead of re-sweeping
// every op of a program on each delivery (quadratic for the 1D Ring, whose
// programs hold ~2P ops), it keeps per-call candidate heaps of op indices
// that may progress — seeded by deliveries (the active consumer of the
// delivered color) and dep-completion cascades (a reverse-dependency list).
//
// Equivalence with the original fixpoint sweep (ascending op scan repeated
// until nothing moves) is preserved by the two-heap discipline below: a
// candidate enabled at an index *above* the op being processed joins the
// current pass (the ascending scan would still reach it); one at or below
// waits for the next pass (the scan would only reach it on the next
// iteration). Channel-claim order — ops claim the PE's in/out channel in
// processing order — is therefore identical, and so are all timings.
//
// Storage (DESIGN.md §3 "Structure-of-arrays fabric layout"): per-lane state
// is one Lane record per FabricLayout color key, per-op state one OpState
// record per op key, so a router drain or an op step touches a few cache
// lines. Every segment queue is a Queue over the engine's SegmentPool. The
// layout also owns the compact-color interning and the neighbour table, so
// this engine keeps no index algebra of its own. Register tables are
// skipped: FlowSim has no register state, and a wafer-scale run constructs
// layouts for 262,144 PEs.
class Engine {
 public:
  Engine(const Schedule& s, FlowOptions opt)
      : s_(s),
        opt_(std::move(opt)),
        layout_(s, FabricLayout::Options{.register_tables = false}) {
    const u32 n = layout_.num_pes();
    const std::size_t total_ops = layout_.total_ops();
    const std::size_t total_colors = layout_.total_colors();
    WSR_ASSERT(total_ops < kNil && total_colors < kNil,
               "schedule too large for 32-bit lane and op keys");

    // Every key space is PE-major, and dependencies and consumers never
    // cross PEs. So one pass over the PEs appends each PE's op and lane
    // records in key order, numbers its lanes' parked queues and fills its
    // part of the two counting-sorted arenas: the reverse dependencies of
    // each op (rdep_off_ / rdep_lst_) and the program-ordered consumers of
    // each lane (Lane::consumer_off / consumer_lst_).
    //
    // Parked queues exist only for the (lane, direction) pairs some rule
    // accepts from: wavelets arriving anywhere else could never be drained,
    // and a dense [lane][dir] table would be ~5x mostly-dead queues. A
    // lane's queues are contiguous from parked_base, one per `accept` bit
    // in direction order (parked_index); an arrival from any other
    // direction is the stray-traffic bug.
    ops_.reserve(total_ops);
    rdep_off_.reserve(total_ops + 1);
    lanes_.reserve(total_colors + 1);
    consumer_lst_.reserve(total_ops);  // at most one entry per op
    u32 parked = 0;
    std::vector<u32> slot;  // per PE: [op] reverse deps, then [ci] consumers
    for (u32 pe = 0; pe < n; ++pe) {
      const auto& ops = s.programs[pe].ops;
      const u32 num_ops = static_cast<u32>(ops.size());
      const u32 num_lanes = layout_.num_colors(pe);
      const u32 lane_base = static_cast<u32>(layout_.color_base(pe));
      const u32 op_base = static_cast<u32>(ops_.size());
      slot.assign(num_ops + num_lanes, 0);
      for (const Op& op : ops) {
        OpState st;
        st.deps_pending = static_cast<u32>(op.deps.size());
        for (u32 d : op.deps) {
          WSR_ASSERT(d < num_ops, "dependency on a missing op");
          ++slot[d];
        }
        if (op.kind != OpKind::Send) {
          const u32 ci = in_ci(pe, op);
          st.in_lane = lane_base + ci;
          ++slot[num_ops + ci];
        }
        ops_.push_back(st);
      }
      // The counts become each op's and each lane's first arena slot.
      u32 at = static_cast<u32>(rdep_lst_.size());
      for (u32 oi = 0; oi < num_ops; ++oi) {
        rdep_off_.push_back(at);
        const u32 count = slot[oi];
        slot[oi] = at;
        at += count;
      }
      rdep_lst_.resize(at);
      at = static_cast<u32>(consumer_lst_.size());
      for (u32 ci = 0; ci < num_lanes; ++ci) {
        Lane lane;
        const auto rules = layout_.rules(lane_base + ci);
        lane.rule_remaining = rules.empty() ? 0 : rules[0].count;
        for (const RouteRule& r : rules) lane.accept |= dir_bit(r.accept);
        lane.parked_base = parked;
        parked += static_cast<u32>(std::popcount(lane.accept));
        lane.consumer_off = at;
        lanes_.push_back(lane);
        const u32 count = slot[num_ops + ci];
        slot[num_ops + ci] = at;
        at += count;
      }
      consumer_lst_.resize(at);
      for (u32 oi = 0; oi < num_ops; ++oi) {
        for (u32 d : ops[oi].deps) rdep_lst_[slot[d]++] = oi;
        if (ops[oi].kind != OpKind::Send) {
          const u32 ci = ops_[op_base + oi].in_lane - lane_base;
          consumer_lst_[slot[num_ops + ci]++] = oi;
        }
      }
    }
    rdep_off_.push_back(static_cast<u32>(rdep_lst_.size()));
    Lane sentinel;
    sentinel.consumer_off = static_cast<u32>(consumer_lst_.size());
    lanes_.push_back(sentinel);
    parked_.assign(parked, Queue{});
    open_lst_.resize(consumer_lst_.size());

    chan_in_free_.assign(n, 0);
    chan_out_free_.assign(n, 0);

    // Degraded links (FlowOptions::link_overrides): a flat per-directed-link
    // rate table, only materialized when an override names a link of this
    // grid. Failed links assert at drain time if traffic reaches them.
    for (const LinkOverride& o : opt_.link_overrides) {
      if (!override_in_grid(o, s.grid)) continue;
      if (!degraded_) {
        degraded_ = true;
        link_rate_.assign(std::size_t{n} * wsr::kNumDirs, 1);
      }
      link_rate_[std::size_t{s.grid.pe_id(o.x, o.y)} * wsr::kNumDirs +
                 static_cast<u32>(o.dir)] = o.factor;
    }
  }

  FlowResult run() {
    const u32 n = layout_.num_pes();
    // Initial pass: only dep-free ops can make progress — queue just those.
    // Dep-blocked ops are queued by the on_op_done cascade exactly when their
    // last dependency completes (deps_pending), which is the first moment
    // the original all-ops seeding could have advanced them; every earlier
    // wakeup was a no-op, so skipping it leaves the claim order untouched.
    for (u32 pe = 0; pe < n; ++pe) {
      const std::size_t num_ops = layout_.num_ops(pe);
      const OpState* ops = ops_.data() + layout_.op_base(pe);
      for (u32 oi = 0; oi < num_ops; ++oi) {
        if (ops[oi].deps_pending == 0) queue_op(pe, oi);
      }
      sweep(pe);
    }
    drain_worklists();

    FlowResult res;
    for (u32 pe = 0; pe < n; ++pe) {
      const std::size_t num_ops = layout_.num_ops(pe);
      const OpState* ops = ops_.data() + layout_.op_base(pe);
      for (u32 oi = 0; oi < num_ops; ++oi) {
        const OpState& st = ops[oi];
        if (!st.done) {
          std::fprintf(stderr,
                       "FlowSim: schedule '%s' op %u at PE %u never completed "
                       "(consumed %u/%u)\n",
                       s_.name.c_str(), oi, pe, st.consumed,
                       s_.programs[pe].ops[oi].len);
          WSR_ASSERT(false, "flow-level deadlock / unmatched traffic");
        }
        res.cycles = std::max(res.cycles, st.cursor + 1);
      }
    }
    return res;
  }

 private:
  /// Per-lane state, one record per color key.
  struct Lane {
    i64 rule_avail = 0;      ///< cycle the active rule can pass a head
    u32 rule_active = 0;     ///< index of the active rule in the chain
    u32 rule_remaining = 0;  ///< wavelets the active rule still passes
    u32 parked_base = 0;     ///< the lane's first parked_ queue
    /// Start of the lane's consumer_lst_ / open_lst_ range; the next lane's
    /// consumer_off ends it.
    u32 consumer_off = 0;
    u32 consumer_cursor = 0;  ///< first not-yet-done consumer
    u32 open_len = 0;         ///< live prefix of the lane's open_lst_ range
    Queue ingress;            ///< segments delivered down the ramp
    DirMask accept = 0;       ///< directions some rule accepts from
  };

  /// Per-op state, one record per op key.
  struct OpState {
    /// Before scheduling: max done time over the finished deps (-1 while
    /// none). FabricSim scans ops in program order within a cycle, so an op
    /// can issue in the cycle its last dependency completed.
    i64 ready = -1;
    /// Last consumption / emission cycle so far; the done time once done.
    i64 cursor = 0;
    u32 consumed = 0;
    u32 deps_pending = 0;  ///< deps not yet done
    u32 in_lane = 0;       ///< the lane a Recv / RecvReduceSend consumes
    bool scheduled = false;  ///< start time fixed (deps + channel known)
    bool done = false;
    bool queued = false;  ///< pending in the candidate heaps of this call
  };
  // The per-run footprint (DESIGN.md §3) rests on these sizes: one Lane per
  // color key and one OpState per op, 1.3M of them at wafer scale.
  static_assert(sizeof(Lane) == 48 && sizeof(OpState) == 32);

  /// A worklist entry: a router lane to drain (router_work_), or a lane
  /// that received ingress segments (pe_work_).
  struct Work {
    u32 pe;
    u32 ck;
  };

  /// The lane of (pe, color) and its parked queue for arrivals from `from`.
  struct Arrival {
    u32 ck;
    u32 queue;  ///< parked_ index
  };

  /// The compact color a Recv / RecvReduceSend consumes: its lane's offset
  /// within the PE.
  u32 in_ci(u32 pe, const Op& op) const {
    const i8 ci = layout_.compact_color(pe, op.in_color);
    WSR_ASSERT(ci >= 0, "recv on unknown color");
    return static_cast<u32>(ci);
  }

  /// The parked_ index of a lane's queue for `from`, which must be one of
  /// the lane's accept directions.
  u32 parked_index(const Lane& lane, Dir from) const {
    const u32 below = dir_bit(from) - 1u;
    return lane.parked_base + static_cast<u32>(std::popcount(
                                  static_cast<u32>(lane.accept & below)));
  }

  /// Where wavelets of `color` arriving at `pe` from `from` park. Aborts on
  /// stray traffic: the PE has no rules for the color, or none of them
  /// accepts from `from`.
  Arrival arrival(u32 pe, Color color, Dir from) const {
    const i8 ci = layout_.compact_color(pe, color);
    if (ci < 0) {
      std::fprintf(stderr,
                   "FlowSim: wavelets of color %u reached PE %u which has no "
                   "rules for it (schedule '%s')\n",
                   static_cast<u32>(color), pe, s_.name.c_str());
      WSR_ASSERT(false, "stray traffic");
    }
    const u32 ck =
        static_cast<u32>(layout_.color_key(pe, static_cast<u32>(ci)));
    const Lane& lane = lanes_[ck];
    if (!mask_has(lane.accept, from)) {
      std::fprintf(stderr,
                   "FlowSim: wavelets of color %u reached PE %u from %s, but "
                   "no rule accepts from there (schedule '%s')\n",
                   static_cast<u32>(color), pe, dir_name(from),
                   s_.name.c_str());
      WSR_ASSERT(false, "stray traffic");
    }
    return {ck, parked_index(lane, from)};
  }

  void deliver_to_router(u32 pe, Color color, Dir dir, const Segment& seg) {
    const Arrival a = arrival(pe, color, dir);
    pool_.push(parked_[a.queue], seg);
    router_work_.push_back({pe, a.ck});
  }

  void drain_router(u32 pe, u32 ck) {
    Lane& lane = lanes_[ck];
    const auto rules = layout_.rules(ck);
    // Per-rule forward expansion, hoisted out of the segment loop (the
    // FabricSim Simd diet, applied flow-level): the mask scan, neighbour
    // lookup, destination lane and parked-queue resolution and degraded-
    // link factor are all invariant while one rule is active, and a
    // streaming rule passes `count` >> 1 segments. Expanding once per
    // activation leaves only the segment arithmetic per segment. Queue
    // contents are unchanged — each parked queue is fed by exactly one
    // source lane, and pushes from one lane keep their order — so every
    // downstream timing is identical to the per-segment expansion.
    struct Fwd {
      u32 queue;   ///< destination parked_ queue
      u32 npe;     ///< destination PE (router worklist entry)
      u32 nck;     ///< destination lane (router worklist entry)
      u32 factor;  ///< link pacing factor (1 on a pristine link)
    };
    std::array<Fwd, wsr::kNumDirs> fwd;
    u32 nfwd = 0;
    bool ramp = false;
    u32 max_factor = 1;
    u32 expanded_for = UINT32_MAX;  // rule index `fwd` currently describes
    while (lane.rule_active < rules.size()) {
      const u32 ri = lane.rule_active;
      const RouteRule& rule = rules[ri];
      // The queue exists: every rule's accept dir is in lane.accept.
      Queue& queue = parked_[parked_index(lane, rule.accept)];
      if (queue.empty()) return;
      if (expanded_for != ri) {
        nfwd = 0;
        ramp = false;
        max_factor = 1;
        for (u8 d = 0; d < kNumDirs; ++d) {
          const Dir dd = static_cast<Dir>(d);
          if (!mask_has(rule.forward, dd)) continue;
          if (dd == Dir::Ramp) {
            ramp = true;
            continue;
          }
          const u32 npe = layout_.neighbor(pe, d);
          WSR_ASSERT(npe != FabricLayout::kNoNeighbor, "forward off grid");
          u32 f = 1;
          if (degraded_) {
            f = link_rate_[std::size_t{pe} * wsr::kNumDirs + d];
            WSR_ASSERT(f != 0, "traffic routed across a failed link");
          }
          const Arrival a = arrival(npe, rule.color, opposite(dd));
          fwd[nfwd++] = {a.queue, npe, a.ck, f};
          max_factor = std::max(max_factor, f);
        }
        expanded_for = ri;
      }
      const Segment seg = pool_.front(queue);
      pool_.pop(queue);
      WSR_ASSERT(seg.len <= lane.rule_remaining,
                 "segment crosses a routing-rule boundary");
      const i64 h = std::max(seg.head, lane.rule_avail);
      if (ramp) {
        pool_.push(lane.ingress, {h + opt_.ramp_latency, seg.len, seg.rate});
        pe_work_.push_back({pe, ck});
      }
      for (u32 k = 0; k < nfwd; ++k) {
        // Crossing a throttled link stretches the copy to the link's pace.
        const u32 rate = std::max(seg.rate, fwd[k].factor);
        pool_.push(parked_[fwd[k].queue], {h + 1, seg.len, rate});
        router_work_.push_back({fwd[k].npe, fwd[k].nck});
      }
      // The router passes wavelets at the pace of its slowest outgoing
      // branch (a stalled copy back-pressures the whole multicast), never
      // faster than they arrive.
      lane.rule_avail = h + i64{seg.len} * std::max(seg.rate, max_factor);
      lane.rule_remaining -= seg.len;
      if (lane.rule_remaining == 0) {
        const u32 next = ++lane.rule_active;
        lane.rule_remaining = next < rules.size() ? rules[next].count : 0;
      }
    }
    // All rules retired; leftover parked segments are a schedule bug.
    const u32 end = lane.parked_base +
                    static_cast<u32>(std::popcount(lane.accept));
    for (u32 q = lane.parked_base; q < end; ++q) {
      WSR_ASSERT(parked_[q].empty(),
                 "traffic after the last routing rule retired");
    }
  }

  // --- event-driven PE progress ---------------------------------------------

  void queue_op(u32 pe, u32 oi) {
    OpState& st = ops_[layout_.op_key(pe, oi)];
    if (st.queued || st.done) return;
    st.queued = true;
    // Two-heap discipline (see the class comment): indices above the op
    // currently being processed join this pass, others wait for the next.
    if (sweeping_ && oi <= sweep_pos_) {
      next_.push_back(oi);
      std::push_heap(next_.begin(), next_.end(), std::greater<>());
    } else {
      cur_.push_back(oi);
      std::push_heap(cur_.begin(), cur_.end(), std::greater<>());
    }
  }

  /// Seeds every not-done consumer of lane `ck` of `pe` — called for
  /// deliveries and leftover-queue handoff. Seeding all of them (not just
  /// the first) keeps equivalence with the original full sweep even if an
  /// earlier consumer is dep-blocked while a later independent one is
  /// ready; extra candidates are no-ops in run_op.
  void queue_consumer(u32 pe, u32 ck) {
    Lane& lane = lanes_[ck];
    const OpState* ops = ops_.data() + layout_.op_base(pe);
    const u32 end = lanes_[ck + 1].consumer_off - lane.consumer_off;
    const u32* consumers = consumer_lst_.data() + lane.consumer_off;
    while (lane.consumer_cursor < end &&
           ops[consumers[lane.consumer_cursor]].done) {
      ++lane.consumer_cursor;
    }
    if (lane.consumer_cursor < end) {
      queue_op(pe, consumers[lane.consumer_cursor]);
    }
    // Wake every in-flight consumer, dropping finished ones as we go.
    u32* open = open_lst_.data() + lane.consumer_off;
    u32 keep = 0;
    for (u32 k = 0; k < lane.open_len; ++k) {
      const u32 oi = open[k];
      if (ops[oi].done) continue;
      open[keep++] = oi;
      queue_op(pe, oi);
    }
    lane.open_len = keep;
  }

  void on_op_done(u32 pe, u32 oi) {
    // Dep cascade: a dependent becomes a candidate when its *last* dependency
    // lands (deps_pending hits zero). Deps point at lower op indices, so this
    // wake always lands in the current-pass heap — the same slot the original
    // queue-on-every-dep scheme used for the final (only effective) wake; the
    // earlier wakes it skips all bounced off the readiness check.
    const std::size_t base = layout_.op_base(pe);
    const std::size_t key = base + oi;
    const i64 done_time = ops_[key].cursor;
    for (u32 e = rdep_off_[key]; e < rdep_off_[key + 1]; ++e) {
      const u32 dep_oi = rdep_lst_[e];
      OpState& dep = ops_[base + dep_oi];
      dep.ready = std::max(dep.ready, done_time);
      if (--dep.deps_pending == 0) queue_op(pe, dep_oi);
    }
    // A later op consuming the same color continues on the leftover queue.
    const OpState& st = ops_[key];
    if (s_.programs[pe].ops[oi].kind != OpKind::Send &&
        !lanes_[st.in_lane].ingress.empty()) {
      queue_consumer(pe, st.in_lane);
    }
  }

  /// The per-op step: schedule when deps allow, then emit / consume.
  void run_op(u32 pe, u32 oi) {
    OpState& st = ops_[layout_.op_key(pe, oi)];
    if (st.done) return;
    const Op& op = s_.programs[pe].ops[oi];
    if (!st.scheduled) {
      if (st.deps_pending != 0) return;  // not ready yet
      // Same-cycle chaining: FabricSim scans ops in program order within a
      // cycle, so an op whose dependency completed earlier in the same cycle
      // can already issue (deps always point at lower op indices).
      // `ready` is max(done time) over the deps, maintained by the
      // on_op_done cascade (-1 when dep-free).
      i64 start = st.ready;
      if (op.kind != OpKind::Send) start = std::max(start, chan_in_free_[pe]);
      if (op.kind != OpKind::Recv) start = std::max(start, chan_out_free_[pe]);
      st.scheduled = true;
      st.cursor = start - 1;
      // Claim the channels immediately so later ops queue behind; the claim
      // end is extended as the op progresses and finalized on completion.
      if (op.kind == OpKind::Send) {
        // Emission is analytic: len wavelets at 1/cycle from start, so a
        // Send completes in the call that schedules it.
        deliver_to_router(pe, op.out_color, Dir::Ramp,
                          {start + opt_.ramp_latency, op.len});
        st.done = true;
        st.cursor = start + op.len - 1;
        chan_out_free_[pe] = st.cursor + 1;
        on_op_done(pe, oi);
        return;
      }
      // Now an in-flight consumer: deliveries must wake it (see the
      // open-consumer arena). If it completes below, queue_consumer drops
      // it lazily.
      Lane& lane = lanes_[st.in_lane];
      open_lst_[lane.consumer_off + lane.open_len++] = oi;
    }
    // Recv / RecvReduceSend: consume available ingress segments.
    Queue& queue = lanes_[st.in_lane].ingress;
    while (!queue.empty() && st.consumed < op.len) {
      Segment& front = pool_.front(queue);
      const Segment seg = front;
      // A producer's contiguous run may span several consumer ops (e.g. a
      // pipelined reduce-scatter peels one chunk per op off an upstream
      // stream): consume up to the op boundary and leave the paced
      // remainder queued for the next op on this color.
      const u32 take = std::min(seg.len, op.len - st.consumed);
      const i64 first = std::max(st.cursor + 1, seg.head);
      // Wavelet i of a paced segment trails the head by i * rate cycles.
      st.cursor = first + i64{take - 1} * seg.rate;
      st.consumed += take;
      if (take == seg.len) {
        pool_.pop(queue);
      } else {
        front.head = st.cursor + seg.rate;
        front.len = seg.len - take;
      }
      if (op.kind == OpKind::RecvReduceSend) {
        // Each consumed wavelet re-emits one cycle later (combine) plus the
        // up-ramp latency, at the pace it arrived.
        deliver_to_router(pe, op.out_color, Dir::Ramp,
                          {first + 1 + opt_.ramp_latency, take, seg.rate});
      }
    }
    if (st.consumed == op.len) {
      st.done = true;
      chan_in_free_[pe] = st.cursor + 1;
      if (op.kind == OpKind::RecvReduceSend) {
        chan_out_free_[pe] = st.cursor + 1;
      }
      on_op_done(pe, oi);
    }
  }

  /// Runs queued candidates of `pe` to fixpoint (ascending within a pass).
  void sweep(u32 pe) {
    OpState* ops = ops_.data() + layout_.op_base(pe);
    sweeping_ = true;
    while (!cur_.empty() || !next_.empty()) {
      if (cur_.empty()) cur_.swap(next_);
      while (!cur_.empty()) {
        std::pop_heap(cur_.begin(), cur_.end(), std::greater<>());
        const u32 oi = cur_.back();
        cur_.pop_back();
        sweep_pos_ = oi;
        ops[oi].queued = false;
        run_op(pe, oi);
      }
      sweep_pos_ = UINT32_MAX;  // next pass starts fresh
    }
    sweeping_ = false;
    sweep_pos_ = UINT32_MAX;
  }

  void drain_worklists() {
    while (!router_work_.empty() || !pe_work_.empty()) {
      while (!router_work_.empty()) {
        const Work w = router_work_.back();
        router_work_.pop_back();
        drain_router(w.pe, w.ck);
      }
      while (!pe_work_.empty()) {
        const Work w = pe_work_.back();
        pe_work_.pop_back();
        queue_consumer(w.pe, w.ck);
        sweep(w.pe);
      }
    }
  }

  const Schedule& s_;
  FlowOptions opt_;
  FabricLayout layout_;

  std::vector<OpState> ops_;              // [op key]
  std::vector<u32> rdep_off_, rdep_lst_;  // reverse deps over flat op keys

  std::vector<Lane> lanes_;  // [color key], plus the consumer_off sentinel
  std::vector<Queue> parked_;  // per (lane, accept dir), from Lane::parked_base
  SegmentPool pool_;           // nodes of every parked and ingress queue
  /// Program-ordered ops consuming each lane (counting-sorted arena, lane
  /// ranges at Lane::consumer_off); Lane::consumer_cursor points at the
  /// first not-yet-done one.
  std::vector<u32> consumer_lst_;
  /// Consumers currently scheduled but not done (done entries are dropped
  /// lazily), Lane::open_len long per lane. A delivery must wake every one
  /// of them, not just the cursor op: an earlier consumer can be dep-blocked
  /// while a later independent one is mid-stream. Shares consumer_lst_'s
  /// extents — an op enters at most once (on scheduling), so the consumer
  /// count bounds the arena.
  std::vector<u32> open_lst_;

  std::vector<i64> chan_in_free_, chan_out_free_;  // [pe]

  // Degraded links: [pe * kNumDirs + dir] -> pacing factor (1 = pristine,
  // 0 = failed); empty unless an override names a link of this grid.
  bool degraded_ = false;
  std::vector<u32> link_rate_;

  std::vector<Work> router_work_;
  std::vector<Work> pe_work_;
  // Candidate heaps for the PE sweep in flight (reused across calls; both
  // drain to empty before sweep() returns).
  std::vector<u32> cur_, next_;
  bool sweeping_ = false;
  u32 sweep_pos_ = UINT32_MAX;
};

}  // namespace

FlowResult run_flow(const Schedule& schedule, FlowOptions options) {
  Engine engine(schedule, std::move(options));
  return engine.run();
}

}  // namespace wsr::flowsim
