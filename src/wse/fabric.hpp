// FabricSim: a cycle-level simulator of the CS-2 communication fabric.
//
// Modelled hardware behaviour (paper Section 2.2):
//   * 2D mesh of PEs; each router has 5 bidirectional links
//     (W/E/N/S + ramp to its processor), 32-bit wavelets, 1 wavelet per link
//     per direction per cycle, 1 cycle per hop.
//   * Colors are virtual channels: each router input direction holds one
//     in-flight wavelet *per color* (a wavelet stalled on one color never
//     blocks another color), while the physical link still carries at most
//     one wavelet per direction per cycle (round-robin arbitration).
//   * Per-color routing rules with free multicast duplication; a wavelet
//     arriving from a direction the active rule does not accept stalls and
//     back-pressures its upstream link.
//   * Rules retire after a compile-time-known wavelet count (standing in for
//     control-wavelet reconfiguration, see DESIGN.md §2).
//   * Ramp latency T_R cycles each way between router and processor; the
//     processor consumes at most one wavelet per cycle and emits at most one
//     wavelet per cycle; a fused receive-add-forward costs one extra cycle of
//     latency (the model's "+1 to store the received element").
//   * Per-color ingress queues at the processor (dataflow tasks are activated
//     per color), with at most one ramp-down delivery per cycle in total, so
//     the physical ramp bandwidth of 1 wavelet/cycle is respected without
//     head-of-line blocking across colors.
//
// The simulator is fully deterministic. It carries real f32 payloads so that
// tests can verify numerical correctness of the collectives, and it measures
// the model's cost terms (wavelet hops = energy, per-PE ramp traffic =
// contention) alongside the cycle count.
//
// Storage (DESIGN.md §3 "Structure-of-arrays fabric layout"): all simulator
// state lives in globally flat arrays — one array per field — indexed by the
// register/color/op keys a shared FabricLayout (wse/layout.hpp) precomputes,
// with per-PE spans carved out by its offset tables. The moving-chain
// resolve path walks neighbouring PEs' registers and rule state; with the
// previous array-of-PEState layout every hop was a pointer chase through
// that PE's own heap-allocated vectors, and the resolve path was
// memory-latency-bound rather than compute-bound.
//
// Stepping modes (DESIGN.md §3 "The Simd stepping engine"): both modes
// execute the same per-PE step bodies in the same claim-arbitration order,
// so results are bit-identical — pinned by tests/test_fabric_parity.cpp.
//   * FullScan — scan every PE and every occupied register every cycle:
//                the reference oracle the parity suite compares against.
//   * Simd     — the production engine (default): event-driven processor
//                and up-ramp lists, blocked router registers parked on the
//                resource they stalled on, and 64-bit bitmask planes over
//                the flat register key space (candidate, structural-No)
//                walked 64 registers per AND/ANDN/ctz iteration. Throttled
//                links are paced in place, like FullScan paces them.
#pragma once

#include <string_view>
#include <vector>

#include "common/grid.hpp"
#include "common/lazy_fifo.hpp"
#include "common/link_override.hpp"
#include "common/types.hpp"
#include "wse/layout.hpp"
#include "wse/schedule.hpp"

namespace wsr::wse {

/// How FabricSim decides which PEs / router registers to step each cycle.
/// Both modes are bit-identical in every observable output; they differ only
/// in how much work a cycle costs (see DESIGN.md §3).
enum class SteppingMode : u8 {
  FullScan,  ///< scan every PE every cycle (the reference oracle).
  Simd,      ///< event-driven bitmask-plane engine (the default).
};

/// The canonical lowercase name of a stepping mode ("fullscan" | "simd");
/// reported as `fabric_stepping` by `wsr_plan --json`, wsrd and the bench
/// reports, and used as the parity tests' labels.
std::string_view stepping_mode_name(SteppingMode mode);

struct FabricOptions {
  u32 ramp_latency = 2;         ///< T_R.
  i64 max_cycles = 500'000'000; ///< hard abort threshold.
  u32 color_queue_capacity = 2; ///< per-color processor ingress queue depth.
  SteppingMode stepping = SteppingMode::Simd;
  /// Degraded hardware (common/link_override.hpp). A throttled link passes
  /// one wavelet per `factor` cycles; constructing a FabricSim for a
  /// schedule that routes across a *failed* link asserts. Overrides naming
  /// links outside the schedule's grid are ignored.
  std::vector<LinkOverride> link_overrides;
};

struct FabricResult {
  /// Cycle at which the last PE operation completed (all PEs start at 0, so
  /// this matches the paper's max end - min start measurement).
  i64 cycles = 0;
  /// Final PE memories.
  std::vector<std::vector<float>> memory;
  /// Measured energy: total mesh-link traversals (multicast copies count).
  i64 wavelet_hops = 0;
  /// Measured contention: max per-PE ramp traffic (up + down wavelets).
  i64 max_pe_ramp_wavelets = 0;
  /// Per-op completion cycles, [pe][op]; -1 for ops that never ran.
  std::vector<std::vector<i64>> op_done_cycle;
};

class FabricSim {
 public:
  FabricSim(const Schedule& schedule, FabricOptions options = {});

  /// Replaces PE-local memory (default: vec_len zeros per PE).
  void set_memory(u32 pe, std::vector<float> data);

  /// Runs to completion and returns the result. Single-shot.
  FabricResult run();

 private:
  struct Wavelet {
    float value = 0;
    Color color = 0;
  };

  struct TimedWavelet {
    Wavelet w;
    i64 ready = 0;
  };

  using WaveletFifo = LazyFifo<TimedWavelet>;

  struct OpState {
    u32 progress = 0;
    bool complete = false;
    i64 done_cycle = -1;
  };

  // -- per-PE cycle-step bodies (identical in both stepping modes) --
  bool step_processor(u32 pe);   // PE ops consume/emit; returns "changed".
  bool step_up_ramp(u32 pe);     // up FIFO head -> ramp register.
  bool router_step_fullscan();   // every occupied register, ascending.
  bool router_step_simd();       // bitmask-plane word walks.

  // movement resolution (memoized per cycle via epoch tags)
  enum class MoveState : u8 { Unknown, InProgress, Yes, No };
  bool resolve_move(u32 pe, u32 dir, std::size_t key);

  // -- active-set bookkeeping (no-ops for simulation state) --
  // `ridx` is always the PE-local register index (dir * num_colors + ci);
  // the global key is layout_.reg_base(pe) + ridx.
  void set_register(u32 pe, std::size_t ridx, float value);
  void wake_processor(u32 pe);
  void note_up_pending(u32 pe);
  void note_queue_pending(u32 pe);
  i64 scan_next_ready();

  // -- stall-cause parking (Simd only; see DESIGN.md §3) --
  /// Why a register's movement resolution said No this cycle.
  enum class StallCause : u8 {
    Transient,   ///< lost a same-cycle claim (link / ramp / destination) or
                 ///< hit a throttled link still recovering — retry next
                 ///< cycle.
    Register,    ///< blocked on an occupied-and-stalled downstream register
                 ///< (payload: its global key) — wake when it clears or is
                 ///< re-attempted.
    ColorEvent,  ///< blocked on this color's rule state or full ingress
                 ///< queue (payload: global color key) — wake on rule
                 ///< advance or queue pop.
  };
  /// Schedules a register for attempt at the next router phase (dedup'd).
  void sub_pend(std::size_t key);
  /// Drains waiter list `head` into `out` (the attempt closure's scratch),
  /// skipping stale entries and keeping parked_count_.
  void sub_wake_list(i32& head, std::vector<u32>& out);
  /// Drains waiter list `head` into the pending plane (bit order is key
  /// order, so the next attempt walk needs no sort).
  void sub_wake_plane(i32& head);
  /// Fires the (pe, ci) color event: rule advanced or ingress queue popped.
  void sub_wake_color(u32 pe, u32 ci);
  /// Parks `key` on the stall cause recorded by its resolution this cycle.
  void sub_park(std::size_t key);

  /// Appends the register's pending move to `places_`, clears the register
  /// and retires rule quota (FullScan); `ridx` is the PE-local register
  /// index.
  bool gather_move(u32 pe, std::size_t ridx);

  /// Fast-path descriptor of a color's *active* rule: when it forwards into
  /// exactly one valid mesh direction, the precomputed destination register
  /// and output link keys let resolve_chain and the Simd gather skip the
  /// per-direction loop, the neighbour lookup and the color re-interning.
  /// dest == kNoFastRule means "take the general path".
  struct RuleFast {
    u32 dest = UINT32_MAX;
    u32 link = 0;
  };
  static constexpr u32 kNoFastRule = UINT32_MAX;

  /// A gathered move awaiting placement (every FullScan move; Simd's
  /// multicast / ramp / exhausted-rule moves). The gather pass must clear
  /// *every* Yes source before any placement lands (a chained forward's
  /// destination is another mover's source).
  struct PendingPlace {
    u32 pe;
    float value;
    Color color;
    DirMask forward;
  };

  /// Refreshes rule_fast_[ck]: the single-mesh-forward fast-path descriptor
  /// of the color's active rule (invalid for multicast / ramp / exhausted).
  void refresh_rule_fast(u32 pe, std::size_t ck);
  /// Recomputes the five struct_ok_ plane bits of color key `ck` (one per
  /// direction register). A cleared bit marks a register whose resolution is
  /// *structurally* No with no claims and no recursion — its color's rule
  /// accepts a different direction (or is exhausted), or forwards only to a
  /// full ingress queue — so the Simd walk settles it with three stores
  /// instead of a resolve call.
  void refresh_struct_ok(u32 pe, std::size_t ck);
  /// Resolves one Simd candidate at its arbitration position: the memoized
  /// verdict if a chain already settled it, and otherwise chains of active
  /// single-mesh-forward rules resolve iteratively over the precomputed
  /// rule_fast_ descriptors (frames on chain_stack_) instead of recursing
  /// through resolve_move's per-direction loop, neighbour lookup and color
  /// re-interning. Falls back to resolve_move only at a multicast / ramp /
  /// exhausted-rule frame. Claim writes, link pacing, stall causes and
  /// verdict memoization are byte-identical to the recursive trace.
  bool resolve_chain(u32 key);
  /// Advances a color's retired rule chain to its next entry (or exhausts
  /// it); under Simd also refreshes the fast descriptor and wakes
  /// rule-parked registers.
  /// `key` is the capturing register (its PE/ci locate the color).
  void retire_rule(u32 key, std::size_t ck);
  /// Places one captured general move's copies: into neighbour registers
  /// or onto the down ramp.
  void place_move(const PendingPlace& p);

  /// The wafer's index algebra: every array below indexed by a register,
  /// color, link or op key is laid out by this module.
  FabricLayout layout_;
  FabricOptions opt_;
  const Schedule* sched_;
  i64 cycle_ = 0;
  i64 hops_ = 0;
  u32 done_count_ = 0;  ///< PEs whose programs have completed
  bool simd_ = false;   ///< stepping == Simd: active sets + parking + planes

  // --- structure-of-arrays simulator state -----------------------------------
  // One flat array per field; per-PE spans are carved out by the layout's
  // offset tables, so a resolve closure walking a stalled chain touches
  // adjacent memory instead of pointer-chasing through per-PE objects.

  // [global register key]
  std::vector<float> reg_value_;
  std::vector<u8> reg_set_;

  // [global color key]
  /// The color's active routing rule, denormalized into one 8-byte slot so
  /// the resolve/gather hot paths make a single load instead of walking
  /// rule_active_ -> layout_.rules(ck) -> RouteRule. Refreshed from the
  /// layout's rule arena only when a rule retires. accept == kNoActiveRule
  /// encodes an exhausted (or empty) chain — it compares unequal to every
  /// direction, which is exactly the stall the scan would produce.
  struct ActiveRule {
    Color color = 0;
    u8 accept = kNoActiveRule;
    DirMask forward = 0;
    u8 pad = 0;
    u32 remaining = 0;
  };
  static constexpr u8 kNoActiveRule = 0xff;
  std::vector<ActiveRule> active_rule_;
  std::vector<u32> rule_active_;     ///< index into layout_.rules(ck); only
                                     ///< touched when a rule retires
  std::vector<WaveletFifo> down_;    ///< processor ingress queue headers
  std::vector<RuleFast> rule_fast_;  ///< active-rule fast path descriptors
                                     ///< (Simd only)

  // [global op key]
  std::vector<OpState> ops_;

  // [pe]
  std::vector<WaveletFifo> up_;        ///< up-ramp pipeline FIFO headers
  std::vector<std::vector<float>> mem_;  ///< PE memories (caller-sized)
  std::vector<i64> ramp_traffic_;
  std::vector<u8> done_;
  std::vector<u32> first_incomplete_;  ///< ops below this index are complete
  /// FullScan's occupancy: #set registers, and a bitmask over PE-local
  /// register indices (dir * num_colors + ci) when they fit in 64 bits
  /// (they do for every generated schedule: <= 12 colors per PE); iterating
  /// set bits ascending is exactly the (dir, color) scan order. The 0-wide
  /// fallback scans all registers of the PE.
  std::vector<u32> occupied_regs_;
  std::vector<u64> occ_mask_;
  std::vector<u8> use_occ_mask_;

  /// Per-register movement-resolution state, epoch-tagged so nothing is
  /// cleared per cycle. One 16-byte slot per register keeps the resolution
  /// verdict, its memoization epoch and the recorded stall cause on a single
  /// cache line — the resolution path is memory-bound, and splitting these
  /// over parallel arrays measurably slows both stepping modes.
  struct MoveSlot {
    i64 epoch = -1;
    MoveState state = MoveState::Unknown;
    u8 cause_kind = 0;       // StallCause, valid when state == No
    u16 pad = 0;
    u32 cause_payload = 0;   // register key or color key, per cause_kind
  };
  std::vector<MoveSlot> move_;         // [global register key]
  std::vector<i64> reg_claim_epoch_;   // [global register key]
  std::vector<i64> link_claim_epoch_;  // [link key]: output link used
  std::vector<i64> ramp_claim_epoch_;  // [pe]: ramp-down delivery used

  // Degraded-link throttling (FabricOptions::link_overrides). Guarded by
  // degraded_ so pristine fabrics never touch these arrays on the hot path.
  bool degraded_ = false;
  std::vector<u32> link_slow_;       ///< [link key] 1 = full rate, 0 = failed,
                                     ///< k >= 2 = one wavelet per k cycles
  std::vector<i64> link_next_free_;  ///< [link key] first claimable cycle
  std::vector<std::size_t> degraded_link_keys_;  ///< overridden links (for
                                                 ///< idle fast-forward scans)

  // Simd active sets. Membership flags guard against duplicates; processor
  // and up-ramp steps touch only their own PE, so their visit order is free.
  std::vector<u8> in_proc_list_, in_up_list_, in_queue_list_;
  std::vector<u32> proc_list_, up_list_, queue_list_;
  std::vector<u32> scratch_;          // reused per-cycle snapshot buffer

  // Stall-cause parking state (all flat, allocated once; intrusive waiter
  // lists thread through waiter_next_ so steady state allocates nothing).
  std::vector<i32> reg_waiter_head_;    // [reg key] -> waiting reg key | -1
  std::vector<i32> color_waiter_head_;  // [color key] -> waiting reg key | -1
  std::vector<i32> waiter_next_;        // [reg key] -> next waiter | -1
  std::vector<u8> sub_state_;           // [reg key]: None/Pending/Parked
  std::vector<u8> up_parked_;           // [pe]: up-ramp waiting on its
                                        //   occupied ramp register
  std::size_t parked_count_ = 0;        // #registers in waiter lists; lets
                                        //   streaming skip the closure scan

  /// Timed wake-ups: (ready cycle, pe) min-heap for processors blocked on a
  /// queue head that is still in flight down the ramp.
  std::vector<std::pair<i64, u32>> wake_heap_;
  /// Up-ramp pacing: (ready cycle, pe) min-heap re-entering the up-ramp
  /// list exactly when the fifo front's latency expires, instead of
  /// re-stepping every in-flight ramp every cycle. Duplicate entries are
  /// harmless (note_up_pending dedups).
  std::vector<std::pair<i64, u32>> ramp_heap_;

  // --- Simd bitmask planes (DESIGN.md §3 "The Simd stepping engine") ---------
  // One bit per global register key, 64 keys per word; bit order == key
  // order == claim-arbitration order, so ascending word/ctz walks replay the
  // serial scan exactly.

  /// A register-key bitmask plane with a touched-word watermark so sparse
  /// cycles scan only the dirty range. Words past total_regs stay zero.
  struct BitPlane {
    std::vector<u64> words;
    u32 lo = UINT32_MAX, hi = 0;  ///< inclusive dirty word range
    void set(std::size_t key) {
      const u32 wi = static_cast<u32>(key >> 6);
      words[wi] |= u64{1} << (key & 63);
      if (wi < lo) lo = wi;
      if (wi > hi) hi = wi;
    }
    bool empty() const { return lo == UINT32_MAX; }
    void reset() { lo = UINT32_MAX; hi = 0; }
  };

  BitPlane pend_plane_;  ///< registers to attempt at the next router phase
  BitPlane att_plane_;   ///< this cycle's attempt closure (consumed)
  /// [key word] bit SET iff the register is *not* structurally No (see
  /// refresh_struct_ok); `attempt & ~struct_ok` is the word-parallel
  /// structural-No pre-pass.
  std::vector<u64> struct_ok_;
  std::vector<u32> wake_stack_;    ///< closure scratch: drained waiter keys
  std::vector<u32> word_scratch_;  ///< nonzero-word indices of one walk
  std::vector<u32> chain_stack_;   ///< iterative chain-resolve frames
  std::vector<u32> survivors_;     ///< this cycle's Yes keys, ascending
  /// Fast-descriptor placements of the current cycle: (dest key, value).
  /// The general PendingPlace record is only built for multicast / ramp /
  /// exhausted rules; single-mesh-forward movers (the streaming hot path)
  /// round-trip this 8-byte pair.
  std::vector<std::pair<u32, float>> fast_places_;
  std::vector<PendingPlace> places_;  ///< general-path gather buffer (every
                                      ///< FullScan move)
};

/// Convenience: build default input data where PE p's element j is
/// `value_of(p, j)`; the canonical test input uses small exact integers.
std::vector<std::vector<float>> make_inputs(const Schedule& s,
                                            float (*value_of)(u32 pe, u32 j));

/// Elementwise sum over all PEs of `inputs` (the expected Reduce result).
std::vector<float> expected_sum(const std::vector<std::vector<float>>& inputs,
                                u32 vec_len);

/// Runs the schedule on FabricSim with the given inputs.
FabricResult run_fabric(const Schedule& s,
                        const std::vector<std::vector<float>>& inputs,
                        FabricOptions options = {});

}  // namespace wsr::wse
