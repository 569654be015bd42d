// The Schedule IR: the compilation target of every collective.
//
// A Schedule describes, for every PE of a rectangular grid:
//   * a small dependency-DAG of processor operations (the "PE program"), and
//   * an ordered list of routing rules per color (the router configuration
//     sequence).
//
// Both the cycle-level FabricSim (wse/fabric.hpp) and the flow-level FlowSim
// (flowsim/flowsim.hpp) execute this IR. It mirrors what the paper's code
// generator emits for the CS-2: CSL tasks operating on DSDs plus router
// color configurations (Sections 2.2, 5.5, 8.2).
//
// Router rules retire after forwarding a compile-time-known wavelet count
// (`count`), standing in for the paper's control-wavelet-triggered
// reconfiguration; see DESIGN.md §2 for why this is timing-equivalent.
#pragma once

#include <string>
#include <vector>

#include "common/grid.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"

namespace wsr::wse {

/// Router color (the CS-2 has 24).
using Color = u8;

/// Router colors the machine provides: valid ids are 0 .. kNumColors - 1.
inline constexpr u32 kNumColors = 24;

/// One routing configuration for one color at one router. While active, the
/// router accepts wavelets of `color` from direction `accept` and forwards a
/// copy into every direction of `forward` (multicast is free). After
/// `count` wavelets the rule retires and the next rule of the same color
/// becomes active. Wavelets arriving from a non-accepted direction stall
/// (back-pressure) until a rule accepting them activates.
struct RouteRule {
  Color color = 0;
  Dir accept = Dir::Ramp;
  DirMask forward = 0;
  u32 count = 0;

  friend bool operator==(const RouteRule&, const RouteRule&) = default;
};

enum class OpKind : u8 {
  Send,            ///< stream `len` elements from local memory up the ramp.
  Recv,            ///< consume `len` elements from the ramp into local memory.
  RecvReduceSend,  ///< fused stream: out[k] = in[k] + local[k] (chain step).
};

enum class RecvMode : u8 {
  Store,      ///< local[dst_offset + k] = in
  Add,        ///< local[dst_offset + k] += in
  AddModulo,  ///< local[dst_offset + k % modulo] += in (Star root: P-1
              ///< vectors arrive back to back on one color).
};

/// Stable display names shared by dump() and the JSON export
/// ("send" / "recv" / "recv_reduce_send"; "store" / "add" / "add_modulo").
const char* op_kind_name(OpKind k);
const char* recv_mode_name(RecvMode m);

/// One processor operation. `deps` are indices of ops in the same PE program
/// that must have completed before this op may start. Ops without
/// dependencies may run concurrently; the processor has one ingress and one
/// egress ramp channel, claimed by runnable ops in program order.
struct Op {
  OpKind kind = OpKind::Send;
  Color in_color = 0;   // Recv / RecvReduceSend
  Color out_color = 0;  // Send / RecvReduceSend
  u32 len = 0;          // elements processed
  RecvMode mode = RecvMode::Add;
  u32 modulo = 0;      // AddModulo only
  u32 src_offset = 0;  // Send / RecvReduceSend: local read base
  u32 dst_offset = 0;  // Recv: local write base
  // Inline-storage vector: dep lists average ~1 entry, and a wafer-scale
  // schedule holds millions of ops — a heap buffer per op dominated
  // schedule construction/teardown (common/small_vec.hpp).
  SmallVec<u32, 2> deps;

  static Op send(Color color, u32 len, u32 src_offset = 0);
  static Op recv(Color color, u32 len, RecvMode mode, u32 dst_offset = 0,
                 u32 modulo = 0);
  static Op recv_reduce_send(Color in, Color out, u32 len, u32 src_offset = 0);
  Op& after(std::initializer_list<u32> dep_ids);
  Op& after(u32 dep_id);
};

struct PEProgram {
  std::vector<Op> ops;

  /// Appends and returns the op's index (for dependency wiring).
  u32 add(Op op);
  bool empty() const { return ops.empty(); }
};

/// Complete description of one collective on one grid.
struct Schedule {
  GridShape grid;
  u32 vec_len = 0;  ///< B: per-PE input vector length in wavelets.
  /// Per-PE memory footprint in words; 0 means vec_len. Collectives whose
  /// output exceeds the input (AllGather holds every PE's contribution)
  /// set this so the simulators size memory and the validator can bound
  /// op offsets. Serialized with the schedule (store schema v2).
  u32 mem_words = 0;
  std::string name;

  std::vector<PEProgram> programs;            ///< one per PE (flat id).
  std::vector<std::vector<RouteRule>> rules;  ///< one list per PE; order within
                                              ///< a color = activation order.

  /// PEs that hold the reduction result in local[0..B) when the schedule
  /// finishes (the root for Reduce, every PE for AllReduce / Broadcast).
  std::vector<u32> result_pes;

  explicit Schedule(GridShape g = {}, u32 b = 0, std::string n = "");

  PEProgram& program(u32 x, u32 y) { return programs[grid.pe_id(x, y)]; }
  PEProgram& program(u32 pe) { return programs[pe]; }
  void add_rule(u32 pe, RouteRule r) { rules[pe].push_back(r); }
  void add_rule(u32 x, u32 y, RouteRule r) { rules[grid.pe_id(x, y)].push_back(r); }

  /// Words of PE memory the schedule operates on (mem_words, defaulting to
  /// the input vector length when unset).
  u32 memory_words() const { return mem_words != 0 ? mem_words : vec_len; }

  /// Number of distinct colors referenced anywhere (paper: implementations
  /// must stay well below the 24 available). Per-PE color interning lives
  /// in FabricLayout (wse/layout.hpp), the index-algebra module both
  /// simulators share.
  u32 colors_used() const;

  /// Human-readable dump (the moral equivalent of the generated CSL):
  /// per-PE programs and router rule chains.
  std::string dump(u32 max_pes = 32) const;
};

}  // namespace wsr::wse
