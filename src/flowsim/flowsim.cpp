#include "flowsim/flowsim.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

#include "common/grid.hpp"
#include "common/lazy_fifo.hpp"
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

// Two inline slots cover the steady state of every streaming pattern the
// builders emit (one segment parked per hop, one ingress segment per
// delivery); deeper queues (incast roots) spill to the heap.
using SegmentFifo = SmallFifo<Segment, 2>;

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
// Storage (DESIGN.md §3 "Structure-of-arrays fabric layout"): all per-lane
// state — rule chains, rule availability, parked and ingress segment FIFOs,
// consumer lists — lives in flat arrays indexed by the FabricLayout's color
// keys, and per-op state by its op keys. The layout also owns the compact-
// color interning and the neighbour table, so this engine keeps no index
// algebra of its own. Register tables are skipped: FlowSim has no register
// state, and a wafer-scale run constructs layouts for 262,144 PEs.
class Engine {
 public:
  Engine(const Schedule& s, FlowOptions opt)
      : s_(s),
        opt_(opt),
        layout_(s, FabricLayout::Options{.strict = true,
                                         .register_tables = false}) {
    const u32 n = layout_.num_pes();
    const std::size_t total_ops = layout_.total_ops();
    const std::size_t total_colors = layout_.total_colors();

    // Reverse-dependency adjacency in two flat arrays (counting sort).
    rdep_off_.assign(total_ops + 1, 0);
    dep_pending_.assign(total_ops, 0);
    dep_ready_.assign(total_ops, -1);
    for (u32 pe = 0; pe < n; ++pe) {
      const auto& ops = s.programs[pe].ops;
      for (u32 oi = 0; oi < ops.size(); ++oi) {
        dep_pending_[layout_.op_key(pe, oi)] =
            static_cast<u32>(ops[oi].deps.size());
        for (u32 d : ops[oi].deps) ++rdep_off_[layout_.op_key(pe, d) + 1];
      }
    }
    for (std::size_t i = 1; i <= total_ops; ++i) rdep_off_[i] += rdep_off_[i - 1];
    rdep_lst_.resize(rdep_off_[total_ops]);
    {
      std::vector<u32> fill(rdep_off_.begin(), rdep_off_.end() - 1);
      for (u32 pe = 0; pe < n; ++pe) {
        const auto& ops = s.programs[pe].ops;
        for (u32 oi = 0; oi < ops.size(); ++oi) {
          for (u32 d : ops[oi].deps) {
            rdep_lst_[fill[layout_.op_key(pe, d)]++] = oi;
          }
        }
      }
    }

    // Per-lane state, flat over color keys. The consumer lists (program-
    // ordered ops consuming each color) are a second counting sort; the
    // open-consumer arena reuses the same offsets — an op enters the open
    // set at most once (when it is first scheduled), so the consumer count
    // is a capacity bound.
    rule_active_.assign(total_colors, 0);
    rule_remaining_.resize(total_colors);
    // Parked queues exist only for (ck, accept dir) pairs some rule names:
    // wavelets arriving anywhere else could never be drained, so a dense
    // [ck][dir] FIFO table is ~5x mostly-dead objects (at wafer scale, a
    // nine-figure allocation per engine). parked_slot_ maps the pair to a
    // compact queue index; kNoSlot arrivals are the stray-traffic bug the
    // old layout only caught once the lane's rules retired.
    parked_slot_.assign(total_colors * wsr::kNumDirs, kNoSlot);
    u32 slots = 0;
    for (std::size_t ck = 0; ck < total_colors; ++ck) {
      const auto rules = layout_.rules(ck);
      rule_remaining_[ck] = rules.empty() ? 0 : rules[0].count;
      for (const RouteRule& r : rules) {
        u32& slot =
            parked_slot_[ck * wsr::kNumDirs + static_cast<u32>(r.accept)];
        if (slot == kNoSlot) slot = slots++;
      }
    }
    rule_avail_.assign(total_colors, 0);
    parked_.resize(slots);
    ingress_.resize(total_colors);

    consumer_off_.assign(total_colors + 1, 0);
    for (u32 pe = 0; pe < n; ++pe) {
      for (const Op& op : s.programs[pe].ops) {
        if (op.kind == OpKind::Send) continue;
        const i8 ci = layout_.compact_color(pe, op.in_color);
        ++consumer_off_[layout_.color_key(pe, static_cast<u32>(ci)) + 1];
      }
    }
    for (std::size_t c = 1; c <= total_colors; ++c) {
      consumer_off_[c] += consumer_off_[c - 1];
    }
    consumer_lst_.resize(consumer_off_[total_colors]);
    open_lst_.resize(consumer_off_[total_colors]);
    {
      std::vector<u32> fill(consumer_off_.begin(), consumer_off_.end() - 1);
      for (u32 pe = 0; pe < n; ++pe) {
        const auto& ops = s.programs[pe].ops;
        for (u32 oi = 0; oi < ops.size(); ++oi) {
          if (ops[oi].kind == OpKind::Send) continue;
          const i8 ci = layout_.compact_color(pe, ops[oi].in_color);
          consumer_lst_[fill[layout_.color_key(pe, static_cast<u32>(ci))]++] =
              oi;
        }
      }
    }
    consumer_cursor_.assign(total_colors, 0);
    open_len_.assign(total_colors, 0);

    ops_.assign(total_ops, OpState{});
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
    // last dependency completes (dep_pending_), which is the first moment the
    // original all-ops seeding could have advanced them; every earlier wakeup
    // was a no-op, so skipping it leaves the claim order untouched.
    for (u32 pe = 0; pe < n; ++pe) {
      const std::size_t num_ops = layout_.num_ops(pe);
      const u32* pending = dep_pending_.data() + layout_.op_base(pe);
      for (u32 oi = 0; oi < num_ops; ++oi) {
        if (pending[oi] == 0) queue_op(pe, oi);
      }
      sweep(pe);
    }
    drain_worklists();

    FlowResult res;
    if (opt_.record_op_times) res.op_done_cycle.resize(n);
    for (u32 pe = 0; pe < n; ++pe) {
      const std::size_t num_ops = layout_.num_ops(pe);
      const OpState* ops = ops_.data() + layout_.op_base(pe);
      if (opt_.record_op_times) res.op_done_cycle[pe].resize(num_ops);
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
        if (opt_.record_op_times) res.op_done_cycle[pe][oi] = st.done_time;
        res.cycles = std::max(res.cycles, st.done_time + 1);
      }
    }
    return res;
  }

 private:
  struct OpState {
    bool scheduled = false;  ///< start time fixed (deps + channel known)
    bool done = false;
    bool queued = false;  ///< pending in the candidate heaps of this call
    i64 start = 0;
    i64 cursor = 0;  ///< last consumption / emission cycle so far
    u32 consumed = 0;
    i64 done_time = -1;
  };

  // Work-queue entries.
  struct RouterWork {
    u32 pe;
    u32 ci;
  };
  struct PeWork {
    u32 pe;
    u32 ci;  ///< compact color that received ingress segments
  };

  void deliver_to_router(u32 pe, Color color, Dir dir, Segment seg) {
    const i8 ci = layout_.compact_color(pe, color);
    if (ci < 0) {
      std::fprintf(stderr,
                   "FlowSim: wavelets of color %u reached PE %u which has no "
                   "rules for it (schedule '%s')\n",
                   static_cast<u32>(color), pe, s_.name.c_str());
      WSR_ASSERT(false, "stray traffic");
    }
    const std::size_t ck = layout_.color_key(pe, static_cast<u32>(ci));
    const u32 slot = parked_slot_[ck * wsr::kNumDirs + static_cast<u32>(dir)];
    if (slot == kNoSlot) {
      std::fprintf(stderr,
                   "FlowSim: wavelets of color %u reached PE %u from %s, but "
                   "no rule accepts from there (schedule '%s')\n",
                   static_cast<u32>(color), pe, dir_name(dir),
                   s_.name.c_str());
      WSR_ASSERT(false, "stray traffic");
    }
    parked_[slot].push(seg);
    router_work_.push_back({pe, static_cast<u32>(ci)});
  }

  void drain_router(u32 pe, u32 ci) {
    const std::size_t ck = layout_.color_key(pe, ci);
    const auto rules = layout_.rules(ck);
    // Per-rule forward expansion, hoisted out of the segment loop (the
    // FabricSim PR 10 diet, applied flow-level): the mask scan, neighbour
    // lookup, destination color interning, parked-slot resolution and
    // degraded-link factor are all invariant while one rule is active, and
    // a streaming rule passes `count` >> 1 segments. Expanding once per
    // activation leaves only the segment arithmetic per segment. Queue
    // contents are unchanged — each parked slot is fed by exactly one
    // source lane, and pushes from one lane keep their order — so every
    // downstream timing is identical to the per-segment expansion.
    struct Fwd {
      u32 slot;    ///< destination parked_ queue
      u32 npe;     ///< destination PE (router worklist entry)
      u32 nci;     ///< destination compact color (router worklist entry)
      u32 factor;  ///< link pacing factor (1 on a pristine link)
    };
    std::array<Fwd, wsr::kNumDirs> fwd;
    u32 nfwd = 0;
    bool ramp = false;
    u32 max_factor = 1;
    u32 expanded_for = UINT32_MAX;  // rule index `fwd` currently describes
    while (rule_active_[ck] < rules.size()) {
      const u32 ri = rule_active_[ck];
      const RouteRule& rule = rules[ri];
      // The slot exists: every rule's accept dir was seeded at construction.
      auto& queue = parked_[parked_slot_[ck * wsr::kNumDirs +
                                         static_cast<u32>(rule.accept)]];
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
          const i8 nci = layout_.compact_color(npe, rule.color);
          if (nci < 0) {
            std::fprintf(stderr,
                         "FlowSim: wavelets of color %u reached PE %u which "
                         "has no rules for it (schedule '%s')\n",
                         static_cast<u32>(rule.color), npe, s_.name.c_str());
            WSR_ASSERT(false, "stray traffic");
          }
          const std::size_t nck = layout_.color_key(npe, static_cast<u32>(nci));
          const u32 slot = parked_slot_[nck * wsr::kNumDirs +
                                        static_cast<u32>(opposite(dd))];
          if (slot == kNoSlot) {
            std::fprintf(stderr,
                         "FlowSim: wavelets of color %u reached PE %u from "
                         "%s, but no rule accepts from there (schedule "
                         "'%s')\n",
                         static_cast<u32>(rule.color), npe,
                         dir_name(opposite(dd)), s_.name.c_str());
            WSR_ASSERT(false, "stray traffic");
          }
          fwd[nfwd++] = {slot, npe, static_cast<u32>(nci), f};
          max_factor = std::max(max_factor, f);
        }
        expanded_for = ri;
      }
      Segment seg = queue.front();
      queue.pop();
      WSR_ASSERT(seg.len <= rule_remaining_[ck],
                 "segment crosses a routing-rule boundary");
      const i64 h = std::max(seg.head, rule_avail_[ck]);
      if (ramp) {
        ingress_[ck].push({h + opt_.ramp_latency, seg.len, seg.rate});
        pe_work_.push_back({pe, ci});
      }
      for (u32 k = 0; k < nfwd; ++k) {
        // Crossing a throttled link stretches the copy to the link's pace.
        const u32 rate = std::max(seg.rate, fwd[k].factor);
        parked_[fwd[k].slot].push({h + 1, seg.len, rate});
        router_work_.push_back({fwd[k].npe, fwd[k].nci});
      }
      // The router passes wavelets at the pace of its slowest outgoing
      // branch (a stalled copy back-pressures the whole multicast), never
      // faster than they arrive.
      rule_avail_[ck] = h + i64{seg.len} * std::max(seg.rate, max_factor);
      rule_remaining_[ck] -= seg.len;
      if (rule_remaining_[ck] == 0) {
        const u32 next = ++rule_active_[ck];
        rule_remaining_[ck] = next < rules.size() ? rules[next].count : 0;
      }
    }
    // All rules retired; leftover parked segments are a schedule bug.
    for (u8 d = 0; d < kNumDirs; ++d) {
      const u32 slot = parked_slot_[ck * wsr::kNumDirs + d];
      WSR_ASSERT(slot == kNoSlot || parked_[slot].empty(),
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

  /// Seeds every not-done consumer of (pe, ci) — called for deliveries and
  /// leftover-queue handoff. Seeding all of them (not just the first) keeps
  /// equivalence with the original full sweep even if an earlier consumer
  /// is dep-blocked while a later independent one is ready; extra
  /// candidates are no-ops in run_op.
  void queue_consumer(u32 pe, u32 ci) {
    const std::size_t ck = layout_.color_key(pe, ci);
    const OpState* ops = ops_.data() + layout_.op_base(pe);
    u32& cursor = consumer_cursor_[ck];
    const u32 end = static_cast<u32>(consumer_off_[ck + 1] - consumer_off_[ck]);
    const u32* consumers = consumer_lst_.data() + consumer_off_[ck];
    while (cursor < end && ops[consumers[cursor]].done) ++cursor;
    if (cursor < end) queue_op(pe, consumers[cursor]);
    // Wake every in-flight consumer, dropping finished ones as we go.
    u32* open = open_lst_.data() + consumer_off_[ck];
    u32 keep = 0;
    for (u32 k = 0; k < open_len_[ck]; ++k) {
      const u32 oi = open[k];
      if (ops[oi].done) continue;
      open[keep++] = oi;
      queue_op(pe, oi);
    }
    open_len_[ck] = keep;
  }

  void on_op_done(u32 pe, u32 oi) {
    // Dep cascade: a dependent becomes a candidate when its *last* dependency
    // lands (dep_pending_ hits zero). Deps point at lower op indices, so this
    // wake always lands in the current-pass heap — the same slot the original
    // queue-on-every-dep scheme used for the final (only effective) wake; the
    // earlier wakes it skips all bounced off the readiness check.
    const std::size_t key = layout_.op_key(pe, oi);
    const std::size_t base = layout_.op_base(pe);
    const i64 done_time = ops_[key].done_time;
    for (u32 e = rdep_off_[key]; e < rdep_off_[key + 1]; ++e) {
      const u32 dep_oi = rdep_lst_[e];
      i64& ready = dep_ready_[base + dep_oi];
      ready = std::max(ready, done_time);
      if (--dep_pending_[base + dep_oi] == 0) queue_op(pe, dep_oi);
    }
    // A later op consuming the same color continues on the leftover queue.
    const Op& op = s_.programs[pe].ops[oi];
    if (op.kind != OpKind::Send) {
      const i8 ci = layout_.compact_color(pe, op.in_color);
      if (!ingress_[layout_.color_key(pe, static_cast<u32>(ci))].empty()) {
        queue_consumer(pe, static_cast<u32>(ci));
      }
    }
  }

  /// The per-op step: schedule when deps allow, then emit / consume. This is
  /// the original sweep body verbatim; only the surrounding iteration and
  /// the state addressing (flat op/color keys) changed.
  void run_op(u32 pe, u32 oi) {
    OpState* ops = ops_.data() + layout_.op_base(pe);
    OpState& st = ops[oi];
    if (st.done) return;
    const Op& op = s_.programs[pe].ops[oi];
    if (!st.scheduled) {
      const std::size_t key = layout_.op_base(pe) + oi;
      if (dep_pending_[key] != 0) return;  // not ready yet
      // Same-cycle chaining: FabricSim scans ops in program order within a
      // cycle, so an op whose dependency completed earlier in the same cycle
      // can already issue (deps always point at lower op indices).
      // dep_ready_ is max(done_time) over the deps, maintained by the
      // on_op_done cascade (-1 when dep-free).
      i64 start = dep_ready_[key];
      if (op.kind != OpKind::Send) start = std::max(start, chan_in_free_[pe]);
      if (op.kind != OpKind::Recv) start = std::max(start, chan_out_free_[pe]);
      st.scheduled = true;
      st.start = start;
      st.cursor = start - 1;
      // Claim the channels immediately so later ops queue behind; the claim
      // end is extended as the op progresses and finalized on completion.
      if (op.kind != OpKind::Send) {
        // Now an in-flight consumer: deliveries must wake it (see the
        // open-consumer arena). If it completes below, queue_consumer drops
        // it lazily.
        const i8 ci = layout_.compact_color(pe, op.in_color);
        const std::size_t ck = layout_.color_key(pe, static_cast<u32>(ci));
        open_lst_[consumer_off_[ck] + open_len_[ck]++] = oi;
      }
    }
    if (op.kind == OpKind::Send) {
      // Emission is analytic: len wavelets at 1/cycle from start.
      const Segment seg{st.start + opt_.ramp_latency, op.len};
      deliver_to_router(pe, op.out_color, Dir::Ramp, seg);
      st.done = true;
      st.done_time = st.start + op.len - 1;
      chan_out_free_[pe] = st.done_time + 1;
      on_op_done(pe, oi);
      return;
    }
    // Recv / RecvReduceSend: consume available ingress segments.
    const i8 ci = layout_.compact_color(pe, op.in_color);
    WSR_ASSERT(ci >= 0, "recv on unknown color");
    auto& queue = ingress_[layout_.color_key(pe, static_cast<u32>(ci))];
    while (!queue.empty() && st.consumed < op.len) {
      const Segment seg = queue.front();
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
        queue.pop();
      } else {
        queue.front().head = st.cursor + seg.rate;
        queue.front().len = seg.len - take;
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
      st.done_time = st.cursor;
      chan_in_free_[pe] = st.done_time + 1;
      if (op.kind == OpKind::RecvReduceSend) {
        chan_out_free_[pe] = st.done_time + 1;
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
        const RouterWork w = router_work_.back();
        router_work_.pop_back();
        drain_router(w.pe, w.ci);
      }
      while (!pe_work_.empty()) {
        const PeWork w = pe_work_.back();
        pe_work_.pop_back();
        queue_consumer(w.pe, w.ci);
        sweep(w.pe);
      }
    }
  }

  const Schedule& s_;
  FlowOptions opt_;
  FabricLayout layout_;

  std::vector<u32> rdep_off_, rdep_lst_;  // reverse deps over flat op keys
  std::vector<u32> dep_pending_;  ///< [op key] deps not yet done
  std::vector<i64> dep_ready_;    ///< [op key] max done_time over done deps

  // [color key] per-lane state (one flat array per field).
  std::vector<u32> rule_active_;
  std::vector<u32> rule_remaining_;
  std::vector<i64> rule_avail_;  ///< cycle the active rule can pass a head
  static constexpr u32 kNoSlot = UINT32_MAX;
  std::vector<u32> parked_slot_;      // [ck * kNumDirs + dir] -> parked_ index
  std::vector<SegmentFifo> parked_;   // compact, one per seeded (ck, accept)
  std::vector<SegmentFifo> ingress_;  // [ck]
  /// Program-ordered ops consuming each color (counting-sorted arena);
  /// consumer_cursor_ points at the first not-yet-done one.
  std::vector<std::size_t> consumer_off_;  // [total_colors + 1]
  std::vector<u32> consumer_lst_;
  std::vector<u32> consumer_cursor_;
  /// Consumers currently scheduled but not done (done entries are dropped
  /// lazily). A delivery must wake every one of them, not just the cursor
  /// op: an earlier consumer can be dep-blocked while a later independent
  /// one is mid-stream. Shares consumer_off_'s extents — an op enters at
  /// most once (on scheduling), so the consumer count bounds the arena.
  std::vector<u32> open_lst_;
  std::vector<u32> open_len_;

  // [op key] / [pe]
  std::vector<OpState> ops_;
  std::vector<i64> chan_in_free_, chan_out_free_;

  // Degraded links: [pe * kNumDirs + dir] -> pacing factor (1 = pristine,
  // 0 = failed); empty unless an override names a link of this grid.
  bool degraded_ = false;
  std::vector<u32> link_rate_;

  std::vector<RouterWork> router_work_;
  std::vector<PeWork> pe_work_;
  // Candidate heaps for the PE sweep in flight (reused across calls; both
  // drain to empty before sweep() returns).
  std::vector<u32> cur_, next_;
  bool sweeping_ = false;
  u32 sweep_pos_ = UINT32_MAX;
};

}  // namespace

FlowResult run_flow(const Schedule& schedule, FlowOptions options) {
  Engine engine(schedule, options);
  return engine.run();
}

}  // namespace wsr::flowsim
