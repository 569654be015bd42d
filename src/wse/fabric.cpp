#include "wse/fabric.hpp"

#include <algorithm>
#include <bit>

#include "wse/checks.hpp"

namespace wsr::wse {

std::string_view stepping_mode_name(SteppingMode mode) {
  switch (mode) {
    case SteppingMode::FullScan: return "fullscan";
    case SteppingMode::Simd: return "simd";
  }
  return "unknown";
}

namespace {
// sub_state_ values: where a register currently lives in the Simd engine.
// Every occupied register is tracked by exactly one of: the pending plane
// (kPending), a waiter list (kParked), or this cycle's resolution
// (untracked exactly while it is being moved).
constexpr u8 kSubNone = 0;
constexpr u8 kSubPending = 1;
constexpr u8 kSubParked = 2;
}  // namespace

FabricSim::FabricSim(const Schedule& schedule, FabricOptions options)
    : layout_(schedule),
      opt_(std::move(options)),
      sched_(&schedule),
      simd_(opt_.stepping == SteppingMode::Simd) {
  const u32 n = layout_.num_pes();
  const std::size_t total_regs = layout_.total_regs();
  const std::size_t total_colors = layout_.total_colors();

  // Degraded links: only overrides naming links of this grid count; a
  // machine description listing failures elsewhere on the wafer runs the
  // pristine fast paths untouched.
  for (const LinkOverride& o : opt_.link_overrides) {
    degraded_ |= override_in_grid(o, schedule.grid);
  }
  if (degraded_) {
    link_slow_.assign(layout_.total_links(), 1);
    link_next_free_.assign(layout_.total_links(), 0);
    for (const LinkOverride& o : opt_.link_overrides) {
      if (!override_in_grid(o, schedule.grid)) continue;
      const std::size_t lkey = layout_.link_key(
          schedule.grid.pe_id(o.x, o.y), static_cast<u32>(o.dir));
      link_slow_[lkey] = o.factor;
      degraded_link_keys_.push_back(lkey);
    }
    // A schedule that forwards across a failed link can never complete:
    // reject with context at construction instead of deadlocking mid-run.
    WSR_ASSERT(!schedule_crosses_failed_link(schedule, opt_.link_overrides),
               "schedule routes across a failed link");
  }

  // Structure-of-arrays state: every per-register / per-color / per-op field
  // is one flat allocation sized by the layout's extents — the constructor
  // performs a fixed number of allocations regardless of the PE count
  // (allocation counters: bench/micro_machinery.cpp).
  reg_value_.assign(total_regs, 0.0f);
  reg_set_.assign(total_regs, 0);
  rule_active_.assign(total_colors, 0);
  active_rule_.resize(total_colors);
  for (std::size_t ck = 0; ck < total_colors; ++ck) {
    const auto rules = layout_.rules(ck);
    if (!rules.empty()) {
      active_rule_[ck] = {rules[0].color, static_cast<u8>(rules[0].accept),
                          rules[0].forward, 0, rules[0].count};
    }
  }
  down_.resize(total_colors);
  ops_.resize(layout_.total_ops());

  up_.resize(n);
  mem_.resize(n);
  ramp_traffic_.assign(n, 0);
  done_.assign(n, 0);
  first_incomplete_.assign(n, 0);
  for (u32 pe = 0; pe < n; ++pe) {
    mem_[pe].assign(std::max<u32>(schedule.memory_words(), 1), 0.0f);
    done_[pe] = schedule.programs[pe].ops.empty();
    done_count_ += done_[pe];
  }

  move_.assign(total_regs, MoveSlot{});
  reg_claim_epoch_.assign(total_regs, -1);
  link_claim_epoch_.assign(layout_.total_links(), -1);
  ramp_claim_epoch_.assign(n, -1);
  if (simd_) {
    rule_fast_.resize(total_colors);
    in_proc_list_.assign(n, 0);
    in_up_list_.assign(n, 0);
    in_queue_list_.assign(n, 0);
    reg_waiter_head_.assign(total_regs, -1);
    color_waiter_head_.assign(total_colors, -1);
    waiter_next_.assign(total_regs, -1);
    sub_state_.assign(total_regs, kSubNone);
    up_parked_.assign(n, 0);
    // Bitmask planes over the register key space. Words past total_regs
    // never get bits.
    const std::size_t nwords = layout_.plane_words();
    struct_ok_.assign(nwords, 0);
    pend_plane_.words.assign(nwords, 0);
    att_plane_.words.assign(nwords, 0);
    word_scratch_.assign(nwords, 0);
    for (u32 pe = 0; pe < n; ++pe) {
      const u32 nc = layout_.num_colors(pe);
      for (u32 ci = 0; ci < nc; ++ci) {
        const std::size_t ck = layout_.color_key(pe, ci);
        refresh_rule_fast(pe, ck);
        refresh_struct_ok(pe, ck);
      }
    }
  } else {
    occupied_regs_.assign(n, 0);
    occ_mask_.assign(n, 0);
    use_occ_mask_.resize(n);
    for (u32 pe = 0; pe < n; ++pe) {
      use_occ_mask_[pe] = layout_.num_regs(pe) <= 64;
    }
  }
}

void FabricSim::set_memory(u32 pe, std::vector<float> data) {
  WSR_ASSERT(pe < layout_.num_pes(), "pe out of range");
  mem_[pe] = std::move(data);
  // Ops may address the schedule's whole declared footprint even when the
  // caller only seeds the input region; zero-pad rather than index OOB.
  const u32 words = std::max<u32>(sched_->memory_words(), 1);
  if (mem_[pe].size() < words) mem_[pe].resize(words, 0.0f);
}

// --- active-set bookkeeping --------------------------------------------------
// None of these touch simulation state: they only decide which PEs and
// router registers the Simd engine steps. FullScan steps everything, so
// they are no-ops there.

void FabricSim::wake_processor(u32 pe) {
  if (simd_ && !in_proc_list_[pe]) {
    in_proc_list_[pe] = 1;
    proc_list_.push_back(pe);
  }
}

void FabricSim::note_up_pending(u32 pe) {
  if (simd_ && !in_up_list_[pe]) {
    in_up_list_[pe] = 1;
    up_list_.push_back(pe);
  }
}

void FabricSim::note_queue_pending(u32 pe) {
  if (simd_ && !in_queue_list_[pe]) {
    in_queue_list_[pe] = 1;
    queue_list_.push_back(pe);
  }
}

void FabricSim::sub_pend(std::size_t key) {
  if (sub_state_[key] == kSubNone) {
    sub_state_[key] = kSubPending;
    pend_plane_.set(key);
  }
}

void FabricSim::sub_wake_list(i32& head, std::vector<u32>& out) {
  for (i32 k = head; k != -1;) {
    const i32 next = waiter_next_[k];
    if (sub_state_[k] == kSubParked) {
      sub_state_[k] = kSubPending;
      --parked_count_;
      out.push_back(static_cast<u32>(k));
    }
    k = next;
  }
  head = -1;
}

void FabricSim::sub_wake_plane(i32& head) {
  for (i32 k = head; k != -1;) {
    const i32 next = waiter_next_[k];
    if (sub_state_[k] == kSubParked) {
      sub_state_[k] = kSubPending;
      --parked_count_;
      pend_plane_.set(static_cast<std::size_t>(k));
    }
    k = next;
  }
  head = -1;
}

void FabricSim::sub_wake_color(u32 pe, u32 ci) {
  if (!simd_) return;
  // Every caller just advanced this color's rule chain or popped its
  // ingress queue — exactly the transitions the structural-No plane tracks.
  const std::size_t ck = layout_.color_key(pe, ci);
  refresh_struct_ok(pe, ck);
  i32& head = color_waiter_head_[ck];
  if (head != -1) sub_wake_plane(head);
}

void FabricSim::sub_park(std::size_t key) {
  switch (static_cast<StallCause>(move_[key].cause_kind)) {
    case StallCause::Transient:
      // Same-cycle arbitration loss (or a throttled link still recovering):
      // the resource frees at a later cycle boundary, so the register
      // re-attempts next cycle.
      sub_state_[key] = kSubPending;
      pend_plane_.set(key);
      break;
    case StallCause::Register: {
      i32& head = reg_waiter_head_[move_[key].cause_payload];
      waiter_next_[key] = head;
      head = static_cast<i32>(key);
      sub_state_[key] = kSubParked;
      ++parked_count_;
      break;
    }
    case StallCause::ColorEvent: {
      i32& head = color_waiter_head_[move_[key].cause_payload];
      waiter_next_[key] = head;
      head = static_cast<i32>(key);
      sub_state_[key] = kSubParked;
      ++parked_count_;
      break;
    }
  }
}

void FabricSim::set_register(u32 pe, std::size_t ridx, float value) {
  const std::size_t key = layout_.reg_base(pe) + ridx;
  reg_value_[key] = value;
  reg_set_[key] = 1;
  if (simd_) {
    sub_pend(key);  // a fresh arrival is attempted at the next router phase
  } else {
    ++occupied_regs_[pe];
    if (use_occ_mask_[pe]) occ_mask_[pe] |= u64{1} << ridx;
  }
}

// --- per-PE step bodies ------------------------------------------------------

bool FabricSim::step_processor(u32 pe) {
  if (done_[pe]) return false;
  const u32 up_cap = opt_.ramp_latency + 2;
  const PEProgram& prog = sched_->programs[pe];
  OpState* ops = ops_.data() + layout_.op_base(pe);
  WaveletFifo& up = up_[pe];
  std::vector<float>& mem = mem_[pe];
  bool ingress_claimed = false, egress_claimed = false;
  bool changed = false;
  i64 min_future = INT64_MAX;  // earliest in-flight queue head we stalled on
  // Skip the retired prefix (deps point backwards, so ops finish roughly
  // front-to-back; the 1D Ring emits ~2P ops per PE and would otherwise
  // make this scan quadratic).
  u32& first_incomplete = first_incomplete_[pe];
  while (first_incomplete < prog.ops.size() &&
         ops[first_incomplete].complete) {
    ++first_incomplete;
  }
  bool all_done = first_incomplete == prog.ops.size();
  for (u32 oi = first_incomplete; oi < prog.ops.size(); ++oi) {
    OpState& st = ops[oi];
    if (st.complete) continue;
    all_done = false;
    const Op& op = prog.ops[oi];
    bool runnable = true;
    for (u32 d : op.deps) {
      if (!ops[d].complete) {
        runnable = false;
        break;
      }
    }
    if (!runnable) continue;

    const bool needs_in = op.kind != OpKind::Send;
    const bool needs_out = op.kind != OpKind::Recv;
    if (needs_in && ingress_claimed) continue;
    if (needs_out && egress_claimed) continue;
    if (needs_in) ingress_claimed = true;
    if (needs_out) egress_claimed = true;

    switch (op.kind) {
      case OpKind::Send: {
        if (up.size() >= up_cap) break;
        const u32 idx = op.src_offset + st.progress;
        WSR_ASSERT(idx < mem.size(), "send reads past PE memory");
        up.push({{mem[idx], op.out_color}, cycle_ + opt_.ramp_latency});
        note_up_pending(pe);
        note_queue_pending(pe);
        ramp_traffic_[pe]++;
        changed = true;
        if (++st.progress == op.len) {
          st.complete = true;
          st.done_cycle = cycle_;
        }
        break;
      }
      case OpKind::Recv: {
        const i8 ci = layout_.compact_color(pe, op.in_color);
        WSR_ASSERT(ci >= 0, "recv on unknown color");
        auto& q = down_[layout_.color_key(pe, static_cast<u32>(ci))];
        if (q.empty() || q.front().ready > cycle_) {
          if (!q.empty()) min_future = std::min(min_future, q.front().ready);
          break;
        }
        const float v = q.front().w.value;
        q.pop();
        sub_wake_color(pe, static_cast<u32>(ci));  // ingress slot freed
        u32 idx = op.dst_offset;
        idx += op.mode == RecvMode::AddModulo ? st.progress % op.modulo
                                              : st.progress;
        WSR_ASSERT(idx < mem.size(), "recv writes past PE memory");
        if (op.mode == RecvMode::Store) {
          mem[idx] = v;
        } else {
          mem[idx] += v;
        }
        ramp_traffic_[pe]++;
        changed = true;
        if (++st.progress == op.len) {
          st.complete = true;
          st.done_cycle = cycle_;
        }
        break;
      }
      case OpKind::RecvReduceSend: {
        const i8 ci = layout_.compact_color(pe, op.in_color);
        WSR_ASSERT(ci >= 0, "recv_reduce_send on unknown color");
        auto& q = down_[layout_.color_key(pe, static_cast<u32>(ci))];
        if (q.empty() || q.front().ready > cycle_) {
          if (!q.empty()) min_future = std::min(min_future, q.front().ready);
          break;
        }
        if (up.size() >= up_cap) break;
        const float v = q.front().w.value;
        q.pop();
        sub_wake_color(pe, static_cast<u32>(ci));  // ingress slot freed
        const u32 idx = op.src_offset + st.progress;
        WSR_ASSERT(idx < mem.size(), "fused op reads past PE memory");
        // +1 cycle of latency for the combine, per the model's
        // (2*T_R + 1) depth charge.
        up.push({{v + mem[idx], op.out_color},
                 cycle_ + opt_.ramp_latency + 1});
        note_up_pending(pe);
        note_queue_pending(pe);
        ramp_traffic_[pe] += 2;
        changed = true;
        if (++st.progress == op.len) {
          st.complete = true;
          st.done_cycle = cycle_;
        }
        break;
      }
    }
  }
  if (all_done) {
    done_[pe] = 1;
    ++done_count_;
  }
  if (simd_) {
    if (changed && !done_[pe]) {
      wake_processor(pe);  // streaming continues next cycle
    } else if (!changed && min_future != INT64_MAX) {
      wake_heap_.emplace_back(min_future, pe);
      std::push_heap(wake_heap_.begin(), wake_heap_.end(), std::greater<>());
    }
  }
  return changed;
}

bool FabricSim::step_up_ramp(u32 pe) {
  WaveletFifo& up = up_[pe];
  bool changed = false;
  if (!up.empty() && up.front().ready <= cycle_) {
    const Wavelet& w = up.front().w;
    const i8 ci = layout_.compact_color(pe, w.color);
    WSR_ASSERT(ci >= 0, "up-ramp wavelet on unknown color");
    const std::size_t ridx = std::size_t{static_cast<u32>(Dir::Ramp)} *
                                 layout_.num_colors(pe) +
                             static_cast<u32>(ci);
    if (!reg_set_[layout_.reg_base(pe) + ridx]) {
      // else: previous wavelet of this color in place
      set_register(pe, ridx, w.value);
      up.pop();
      wake_processor(pe);  // egress capacity freed
      changed = true;
    } else if (simd_) {
      // The previous wavelet of this color is still parked in the ramp
      // register: wait for the gather that clears it to re-arm us instead
      // of re-stepping every cycle.
      up_parked_[pe] = 1;
      return changed;
    }
  }
  if (!up.empty()) {
    if (simd_ && up.front().ready > cycle_) {
      // Timed pacing: nothing can happen on this ramp before the front
      // wavelet's ready cycle (fifo order keeps per-PE ready times
      // nondecreasing), so park it on the heap instead of re-stepping it
      // every cycle of the latency window — the dominant per-cycle cost on
      // deep incasts, where hundreds of ramps stream concurrently.
      ramp_heap_.emplace_back(up.front().ready, pe);
      std::push_heap(ramp_heap_.begin(), ramp_heap_.end(), std::greater<>());
    } else {
      note_up_pending(pe);
    }
  }
  return changed;
}

bool FabricSim::resolve_move(u32 pe, u32 dir, std::size_t key) {
  MoveSlot& slot = move_[key];
  if (slot.epoch == cycle_) {
    switch (slot.state) {
      case MoveState::Yes: return true;
      case MoveState::No: return false;
      case MoveState::InProgress: return false;  // cycle: conservative stall
      case MoveState::Unknown: break;
    }
  }
  slot.epoch = cycle_;
  slot.state = MoveState::InProgress;
  // Stall-cause channel for the Simd engine's parking: whenever this function
  // decides No it also records *why* (the first failing condition, in
  // direction order). That condition persisting implies the register stays
  // No, so parking on it until it changes is sound; transient same-cycle
  // claim losses retry next cycle instead.
  const auto blocked_transient = [&] {
    slot.cause_kind = static_cast<u8>(StallCause::Transient);
  };
  const auto blocked_on_register = [&](std::size_t victim) {
    slot.cause_kind = static_cast<u8>(StallCause::Register);
    slot.cause_payload = static_cast<u32>(victim);
  };
  const std::size_t ck = layout_.reg_color_key(key);
  const auto blocked_on_color = [&] {
    slot.cause_kind = static_cast<u8>(StallCause::ColorEvent);
    slot.cause_payload = static_cast<u32>(ck);
  };

  WSR_ASSERT(reg_set_[key], "resolve on empty register");
  const ActiveRule rule = active_rule_[ck];
  if (rule.accept != dir) {  // kNoActiveRule compares unequal to any dir
    blocked_on_color();  // wait for this color's rule chain to advance
    slot.state = MoveState::No;
    return false;
  }

  // Tentatively claim destinations and output links; roll back on failure.
  // A rule forwards into at most the 4 mesh directions, so fixed-size claim
  // scratch avoids a heap allocation per resolution.
  std::size_t claimed_regs[kNumDirs - 1];
  std::size_t claimed_links[kNumDirs - 1];
  u32 num_claimed_regs = 0, num_claimed_links = 0;
  bool claimed_ramp = false;
  bool ok = true;
  for (u8 d = 0; d < kNumDirs && ok; ++d) {
    const Dir dd = static_cast<Dir>(d);
    if (!mask_has(rule.forward, dd)) continue;
    if (dd == Dir::Ramp) {
      auto& q = down_[ck];
      const u32 cap = opt_.ramp_latency + opt_.color_queue_capacity;
      if (q.size() >= cap) {
        blocked_on_color();  // wait for the processor to pop this queue
        ok = false;
        break;
      }
      if (ramp_claim_epoch_[pe] == cycle_) {
        blocked_transient();  // another color won this cycle's ramp delivery
        ok = false;
        break;
      }
      ramp_claim_epoch_[pe] = cycle_;
      claimed_ramp = true;
    } else {
      // Physical link: one wavelet per direction per cycle across colors.
      const std::size_t lkey = layout_.link_key(pe, d);
      if (link_claim_epoch_[lkey] == cycle_) {
        blocked_transient();  // another color won this cycle's link slot
        ok = false;
        break;
      }
      if (degraded_ && cycle_ < link_next_free_[lkey]) {
        blocked_transient();  // throttled link still recovering
        ok = false;
        break;
      }
      const u32 npe = layout_.neighbor(pe, d);
      WSR_ASSERT(npe != FabricLayout::kNoNeighbor, "forward off grid");
      const i8 nci = layout_.compact_color(npe, rule.color);
      if (nci < 0) {
        // Traffic heading into a PE with no rules for its color: schedule
        // bug; stall it so the deadlock detector reports context.
        blocked_transient();
        ok = false;
        break;
      }
      const u32 nreg = static_cast<u32>(opposite(dd));
      const std::size_t nkey =
          layout_.reg_key(npe, nreg, static_cast<u32>(nci));
      if (reg_set_[nkey] &&
          !resolve_move(npe, nreg, nkey)) {
        blocked_on_register(nkey);  // wait for the stalled register to clear
        ok = false;
        break;
      }
      if (reg_claim_epoch_[nkey] == cycle_) {
        blocked_transient();
        ok = false;
        break;
      }
      reg_claim_epoch_[nkey] = cycle_;
      claimed_regs[num_claimed_regs++] = nkey;
      link_claim_epoch_[lkey] = cycle_;
      claimed_links[num_claimed_links++] = lkey;
      if (degraded_) link_next_free_[lkey] = cycle_ + link_slow_[lkey];
    }
  }
  if (!ok) {
    for (u32 k = 0; k < num_claimed_regs; ++k)
      reg_claim_epoch_[claimed_regs[k]] = -1;
    for (u32 k = 0; k < num_claimed_links; ++k) {
      link_claim_epoch_[claimed_links[k]] = -1;
      // Any pre-claim next-free was <= cycle_ (the claim passed the check),
      // and every value <= cycle_ is equivalent for all later cycles.
      if (degraded_) link_next_free_[claimed_links[k]] = 0;
    }
    if (claimed_ramp) ramp_claim_epoch_[pe] = -1;
    slot.state = MoveState::No;
    return false;
  }
  slot.state = MoveState::Yes;
  return true;
}

bool FabricSim::gather_move(u32 pe, std::size_t ridx) {
  const std::size_t key = layout_.reg_base(pe) + ridx;
  const MoveSlot& slot = move_[key];
  if (slot.epoch != cycle_ || slot.state != MoveState::Yes) return false;
  const std::size_t ck = layout_.reg_color_key(key);
  ActiveRule& ar = active_rule_[ck];
  places_.push_back({pe, reg_value_[key], ar.color, ar.forward});
  reg_set_[key] = 0;
  WSR_ASSERT(occupied_regs_[pe] > 0, "register occupancy underflow");
  --occupied_regs_[pe];
  if (use_occ_mask_[pe]) occ_mask_[pe] &= ~(u64{1} << ridx);
  WSR_ASSERT(ar.remaining > 0, "rule accounting underflow");
  if (--ar.remaining == 0) retire_rule(static_cast<u32>(key), ck);
  return true;
}

bool FabricSim::router_step_fullscan() {
  // Resolution order is claim-arbitration order: ascending PE id, and
  // ascending register index within a PE (== the (dir, color) scan order;
  // the occupancy-bitmask iteration preserves it).
  const u32 n = layout_.num_pes();
  for (u32 pe = 0; pe < n; ++pe) {
    if (occupied_regs_[pe] == 0) continue;
    const u32 num_colors = layout_.num_colors(pe);
    const std::size_t base = layout_.reg_base(pe);
    if (use_occ_mask_[pe]) {
      for (u64 m = occ_mask_[pe]; m != 0; m &= m - 1) {
        const std::size_t key = base + static_cast<u32>(std::countr_zero(m));
        if (move_[key].epoch != cycle_) {
          resolve_move(pe, layout_.reg_dir(key), key);
        }
      }
    } else {
      for (u32 d = 0; d < kNumDirs; ++d) {
        for (u32 ci = 0; ci < num_colors; ++ci) {
          const std::size_t ridx = std::size_t{d} * num_colors + ci;
          if (reg_set_[base + ridx] && move_[base + ridx].epoch != cycle_) {
            resolve_move(pe, d, base + ridx);
          }
        }
      }
    }
  }

  // Gather all moves, clear sources and account rules, then place copies.
  places_.clear();
  bool changed = false;
  for (u32 pe = 0; pe < n; ++pe) {
    if (occupied_regs_[pe] == 0) continue;
    if (use_occ_mask_[pe]) {
      // Snapshot: gather clears bits as it consumes registers.
      for (u64 m = occ_mask_[pe]; m != 0; m &= m - 1) {
        changed |= gather_move(pe, static_cast<u32>(std::countr_zero(m)));
      }
    } else {
      const std::size_t num_regs = layout_.num_regs(pe);
      const std::size_t base = layout_.reg_base(pe);
      for (std::size_t ridx = 0; ridx < num_regs; ++ridx) {
        if (reg_set_[base + ridx]) changed |= gather_move(pe, ridx);
      }
    }
  }
  for (const PendingPlace& p : places_) place_move(p);
  return changed;
}

// --- Simd engine -------------------------------------------------------------
// Correctness argument (DESIGN.md §3 "The Simd stepping engine"): the walk
// resolves the attempt closure in ascending register key — the serial
// scan's claim-arbitration order — and every register it skips is either
// parked on a stall cause that still holds or *structurally* No (rule
// accept mismatch, or a ramp-only forward into a full ingress queue), which
// resolve_move answers No under any claim state without retaining a claim.
// Skipping those registers leaves the claim sequence of the resolutions
// byte-for-byte identical to the full scan's.

void FabricSim::refresh_rule_fast(u32 pe, std::size_t ck) {
  RuleFast f;
  const ActiveRule& ar = active_rule_[ck];
  if (ar.accept != kNoActiveRule && std::has_single_bit(ar.forward) &&
      !mask_has(ar.forward, Dir::Ramp)) {
    const u32 d = static_cast<u32>(std::countr_zero(ar.forward));
    const u32 npe = layout_.neighbor(pe, d);
    if (npe != FabricLayout::kNoNeighbor) {
      const i8 nci = layout_.compact_color(npe, ar.color);
      if (nci >= 0) {
        const u32 nreg = static_cast<u32>(opposite(static_cast<Dir>(d)));
        f.dest = static_cast<u32>(
            layout_.reg_key(npe, nreg, static_cast<u32>(nci)));
        f.link = static_cast<u32>(layout_.link_key(pe, d));
      }
    }
  }
  rule_fast_[ck] = f;
}

void FabricSim::refresh_struct_ok(u32 pe, std::size_t ck) {
  // A cleared bit must imply: resolve_move on that register returns No with
  // cause {ColorEvent, ck}, making zero claims and zero recursive calls.
  // Two cases qualify:
  //   (a) the color's active rule does not accept the register's direction
  //       (or the chain is exhausted) — resolve_move rejects before its
  //       direction loop;
  //   (b) the rule forwards *only* to the ramp and the ingress queue is
  //       full — the direction loop visits just Dir::Ramp and rejects.
  // A multicast rule that forwards to the ramp *and* mesh directions with a
  // full queue must stay a candidate: Dir::Ramp is last in the direction
  // loop, so resolve_move claims and recurses through the mesh forwards
  // first and can record a different stall cause.
  const ActiveRule& ar = active_rule_[ck];
  const u32 nc = layout_.num_colors(pe);
  const u32 ci = static_cast<u32>(ck - layout_.color_base(pe));
  const std::size_t base = layout_.reg_base(pe) + ci;
  const bool ramp_blocked =
      ar.forward == dir_bit(Dir::Ramp) &&
      down_[ck].size() >= opt_.ramp_latency + opt_.color_queue_capacity;
  for (u32 d = 0; d < kNumDirs; ++d) {
    const std::size_t key = base + std::size_t{d} * nc;
    const u64 bit = u64{1} << (key & 63);
    u64& w = struct_ok_[key >> 6];
    w = ar.accept == d && !ramp_blocked ? (w | bit) : (w & ~bit);
  }
}

bool FabricSim::resolve_chain(u32 key) {
  // Iterative replay of the resolve_move recursion for runs of active
  // single-mesh-forward rules: each frame costs the inline fast-path checks
  // only, where the recursive trace pays resolve_move's per-direction loop,
  // neighbour lookup and color re-interning per chain link. Every
  // slot/claim/pacing write below is the one the recursion makes for the
  // same key, in the same order.
  chain_stack_.clear();
  u32 k = key;
  bool result;
  for (;;) {
    MoveSlot& slot = move_[k];
    if (slot.epoch == cycle_ && slot.state != MoveState::Unknown) {
      // Memoized verdict; InProgress means the chain closed into its own
      // tail, which the recursion treats as a conservative stall.
      result = slot.state == MoveState::Yes;
      break;
    }
    const std::size_t ck = layout_.reg_color_key(k);
    const RuleFast fast = rule_fast_[ck];
    const auto blocked = [&](StallCause cause, u32 payload) {
      slot.epoch = cycle_;
      slot.state = MoveState::No;
      slot.cause_kind = static_cast<u8>(cause);
      slot.cause_payload = payload;
    };
    if (fast.dest == kNoFastRule) {  // multicast / ramp / exhausted rule
      result = resolve_move(layout_.pe_of_reg(k), layout_.reg_dir(k), k);
      break;
    }
    if (active_rule_[ck].accept != layout_.reg_dir(k)) {
      blocked(StallCause::ColorEvent, static_cast<u32>(ck));
      result = false;
      break;
    }
    if (link_claim_epoch_[fast.link] == cycle_) {
      blocked(StallCause::Transient, 0);  // lost this cycle's link slot
      result = false;
      break;
    }
    if (degraded_ && cycle_ < link_next_free_[fast.link]) {
      blocked(StallCause::Transient, 0);  // throttled link still recovering
      result = false;
      break;
    }
    if (reg_set_[fast.dest]) {
      const MoveSlot& d = move_[fast.dest];
      if (d.epoch != cycle_ || d.state == MoveState::Unknown) {
        // Unresolved occupied destination: descend, in this key's
        // arbitration position (InProgress first, exactly like the
        // recursion, so chain cycles stall conservatively).
        slot.epoch = cycle_;
        slot.state = MoveState::InProgress;
        chain_stack_.push_back(k);
        k = fast.dest;
        continue;
      }
      if (d.state != MoveState::Yes) {  // No, or InProgress (a chain cycle)
        blocked(StallCause::Register, fast.dest);
        result = false;
        break;
      }
      // Yes: the destination vacates this cycle; fall through to claim it.
    }
    if (reg_claim_epoch_[fast.dest] == cycle_) {
      blocked(StallCause::Transient, 0);  // another color claimed it
      result = false;
      break;
    }
    reg_claim_epoch_[fast.dest] = cycle_;
    link_claim_epoch_[fast.link] = cycle_;
    if (degraded_) link_next_free_[fast.link] = cycle_ + link_slow_[fast.link];
    slot.epoch = cycle_;
    slot.state = MoveState::Yes;
    result = true;
    break;
  }
  // Unwind: every stacked frame is InProgress and single-forward; its
  // outcome is its destination's outcome plus the deferred claim checks
  // (its link and pacing checks passed before it descended).
  while (!chain_stack_.empty()) {
    const u32 kk = chain_stack_.back();
    chain_stack_.pop_back();
    MoveSlot& slot = move_[kk];
    const RuleFast fast = rule_fast_[layout_.reg_color_key(kk)];
    if (!result) {
      slot.state = MoveState::No;
      slot.cause_kind = static_cast<u8>(StallCause::Register);
      slot.cause_payload = fast.dest;
      continue;
    }
    if (reg_claim_epoch_[fast.dest] == cycle_) {
      slot.state = MoveState::No;
      slot.cause_kind = static_cast<u8>(StallCause::Transient);
      result = false;
      continue;
    }
    reg_claim_epoch_[fast.dest] = cycle_;
    link_claim_epoch_[fast.link] = cycle_;
    if (degraded_) link_next_free_[fast.link] = cycle_ + link_slow_[fast.link];
    slot.state = MoveState::Yes;
  }
  return result;
}

void FabricSim::retire_rule(u32 key, std::size_t ck) {
  const u32 pe = layout_.pe_of_reg(key);
  const auto rules = layout_.rules(ck);
  const u32 next = ++rule_active_[ck];
  ActiveRule& ar = active_rule_[ck];
  if (next < rules.size()) {
    ar = {rules[next].color, static_cast<u8>(rules[next].accept),
          rules[next].forward, 0, rules[next].count};
  } else {
    ar.accept = kNoActiveRule;
  }
  if (!simd_) return;
  refresh_rule_fast(pe, ck);
  sub_wake_color(pe, layout_.reg_ci(key));  // parked on the retired rule
}

void FabricSim::place_move(const PendingPlace& p) {
  for (u8 d = 0; d < kNumDirs; ++d) {
    const Dir dd = static_cast<Dir>(d);
    if (!mask_has(p.forward, dd)) continue;
    if (dd == Dir::Ramp) {
      const i8 ci = layout_.compact_color(p.pe, p.color);
      const std::size_t ck = layout_.color_key(p.pe, static_cast<u32>(ci));
      down_[ck].push({{p.value, p.color}, cycle_ + opt_.ramp_latency});
      if (simd_) {
        // The push may fill the ingress queue, flipping the color's
        // registers to structurally No for the next walk.
        refresh_struct_ok(p.pe, ck);
        wake_processor(p.pe);
        note_queue_pending(p.pe);
      }
    } else {
      const u32 npe = layout_.neighbor(p.pe, d);
      const i8 nci = layout_.compact_color(npe, p.color);
      const std::size_t ridx = std::size_t{static_cast<u32>(opposite(dd))} *
                                   layout_.num_colors(npe) +
                               static_cast<u32>(nci);
      WSR_ASSERT(!reg_set_[layout_.reg_base(npe) + ridx],
                 "register collision");
      set_register(npe, ridx, p.value);
      ++hops_;
    }
  }
}

// flatten: the per-candidate helpers (resolve_chain, sub_park,
// sub_wake_plane) run tens of millions of times per mover-dense run; the
// call overhead alone is ~10% of the walk. GCC does not inline them at -O2
// without the nudge.
__attribute__((flatten)) bool FabricSim::router_step_simd() {
  // Candidate tracking in bitmask planes: the pending/attempt swap is O(1),
  // bit order is key order (so the ascending claim-arbitration walk needs
  // no sort), and the structural-No pre-pass rejects 64 registers per
  // AND-NOT. Every state mutation below happens in an order the full scan
  // cannot distinguish — parity is pinned by tests/test_fabric_parity.cpp.
  std::swap(pend_plane_, att_plane_);
  if (att_plane_.empty()) return false;
  u64* att = att_plane_.words.data();
  u32* wlist = word_scratch_.data();
  // Writes the indices of the attempt plane's nonzero words within its
  // dirty range to wlist, ascending; returns how many.
  const auto collect = [&] {
    u32 n = 0;
    for (u32 wi = att_plane_.lo; wi <= att_plane_.hi; ++wi) {
      if (att[wi] != 0) wlist[n++] = wi;
    }
    return n;
  };

  // Close over the register-clear waiter edges (stalled chains slide as a
  // unit in one cycle, so a mover's waiters must attempt this same cycle):
  // drain the waiter lists of every attempted key, then transitively the
  // lists of the woken keys themselves. Setting a bit is idempotent, so the
  // drain order never matters.
  if (parked_count_ != 0) {
    wake_stack_.clear();
    const u32 nseed = collect();
    for (u32 i = 0; i < nseed; ++i) {
      const u32 wi = wlist[i];
      for (u64 m = att[wi]; m != 0; m &= m - 1) {
        const u32 key = (wi << 6) + static_cast<u32>(std::countr_zero(m));
        i32& head = reg_waiter_head_[key];
        if (head != -1) sub_wake_list(head, wake_stack_);
      }
    }
    for (std::size_t i = 0; i < wake_stack_.size(); ++i) {
      const u32 key = wake_stack_[i];
      att_plane_.set(key);
      i32& head = reg_waiter_head_[key];
      if (head != -1) sub_wake_list(head, wake_stack_);
    }
  }

  // Ascending resolve walk. Per word: the structural-No mask settles its
  // registers with plain stores (their serial resolution is {No, ColorEvent,
  // ck} with zero claims and zero recursion — refresh_struct_ok), then the
  // surviving candidates resolve at their arbitration position exactly like
  // the full scan. Settling a word's structural-Nos before its
  // candidates is unobservable: they never claim, and a candidate whose
  // chain destination is one of them reads the identical memoized verdict
  // the serial recursion would have written.
  const u64* ok_words = struct_ok_.data();
  survivors_.clear();
  // Re-collect: the closure may have dirtied words before (or after) the
  // seed range. Nothing below writes att_plane_ (wakes land in pend_plane_),
  // so the collected list stays exact through the walk.
  const u32 nw = collect();
  for (u32 i = 0; i < nw; ++i) {
    const u32 wi = wlist[i];
    const u64 w = att[wi];
    att[wi] = 0;
    const u64 ok = ok_words[wi];
    const u32 base = wi << 6;
    for (u64 no = w & ~ok; no != 0; no &= no - 1) {
      const u32 key = base + static_cast<u32>(std::countr_zero(no));
      WSR_ASSERT(reg_set_[key], "woken register is empty");
      MoveSlot& slot = move_[key];
      const u32 ck = static_cast<u32>(layout_.reg_color_key(key));
      if (slot.epoch != cycle_) {  // else: settled by an earlier recursion
        slot.epoch = cycle_;
        slot.state = MoveState::No;
        slot.cause_kind = static_cast<u8>(StallCause::ColorEvent);
        slot.cause_payload = ck;
      }
      // Park directly on the color's waiter list (sub_park minus the
      // re-dispatch on a cause this pass just proved is ColorEvent).
      i32& chead = color_waiter_head_[ck];
      waiter_next_[key] = chead;
      chead = static_cast<i32>(key);
      sub_state_[key] = kSubParked;
      ++parked_count_;
    }
    for (u64 cand = w & ok; cand != 0; cand &= cand - 1) {
      const u32 key = base + static_cast<u32>(std::countr_zero(cand));
      WSR_ASSERT(reg_set_[key], "woken register is empty");
      if (resolve_chain(key)) {
        sub_state_[key] = kSubNone;
        survivors_.push_back(key);  // walk order == ascending key order
      } else {
        sub_park(key);
      }
    }
  }
  att_plane_.reset();

  // Gather every winner (clear sources, retire quota) before placing any
  // copy — the clear-before-place contract chained forwards rely on.
  // Fast-descriptor movers (the streaming majority) record an 8-byte
  // (dest, value) pair instead of a PendingPlace, and the waiter-list probe
  // is skipped outright while nothing is parked (empty lists are an
  // invariant of parked_count_ == 0).
  if (survivors_.empty()) return false;
  places_.clear();
  fast_places_.clear();
  for (const u32 key : survivors_) {
    const std::size_t ck = layout_.reg_color_key(key);
    ActiveRule& ar = active_rule_[ck];
    const RuleFast fast = rule_fast_[ck];  // pre-retirement rule snapshot
    if (fast.dest != kNoFastRule) {
      fast_places_.emplace_back(fast.dest, reg_value_[key]);
    } else {
      places_.push_back(
          {layout_.pe_of_reg(key), reg_value_[key], ar.color, ar.forward});
    }
    reg_set_[key] = 0;
    if (parked_count_ != 0) {
      i32& head = reg_waiter_head_[key];
      if (head != -1) sub_wake_plane(head);
    }
    if (layout_.reg_dir(key) == static_cast<u32>(Dir::Ramp)) {
      const u32 pe = layout_.pe_of_reg(key);
      if (up_parked_[pe]) {
        up_parked_[pe] = 0;
        note_up_pending(pe);
      }
    }
    WSR_ASSERT(ar.remaining > 0, "rule accounting underflow");
    if (--ar.remaining == 0) retire_rule(key, ck);
  }
  // Place: every destination is claim-exclusive this cycle and pend sets
  // are order-insensitive, so placing the fast batch before the general one
  // is unobservable.
  hops_ += static_cast<i64>(fast_places_.size());
  for (const auto& [dest, value] : fast_places_) {
    WSR_ASSERT(!reg_set_[dest], "register collision");
    // A placeable destination is never pending or parked (both imply the
    // register is occupied), so pend directly instead of via sub_pend's
    // state dispatch.
    WSR_ASSERT(sub_state_[dest] == kSubNone, "placed over a tracked register");
    reg_value_[dest] = value;
    reg_set_[dest] = 1;
    sub_state_[dest] = kSubPending;
    pend_plane_.set(dest);
  }
  for (const PendingPlace& p : places_) place_move(p);
  return true;
}

i64 FabricSim::scan_next_ready() {
  i64 next_ready = INT64_MAX;
  // A register stalled on a throttled link owns a timed event the queue
  // scans below cannot see (the wavelet sits in a register, not a FIFO);
  // without this the idle detector would misread a long recovery as a
  // deadlock and the fast-forward would never reach the recovery cycle.
  if (degraded_) {
    for (const std::size_t lkey : degraded_link_keys_) {
      if (link_next_free_[lkey] > cycle_) {
        next_ready = std::min(next_ready, link_next_free_[lkey]);
      }
    }
  }
  if (!simd_) {
    for (const WaveletFifo& q : down_) {
      if (!q.empty()) next_ready = std::min(next_ready, q.front().ready);
    }
    for (const WaveletFifo& q : up_) {
      if (!q.empty()) next_ready = std::min(next_ready, q.front().ready);
    }
    return next_ready;
  }
  // Simd: only PEs with in-flight ramp traffic can own a timed event;
  // compact the conservative membership list as queues drain. This only
  // runs on idle cycles.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < queue_list_.size(); ++i) {
    const u32 pe = queue_list_[i];
    bool any = !up_[pe].empty();
    if (any) next_ready = std::min(next_ready, up_[pe].front().ready);
    const std::size_t ck_end = layout_.color_base(pe) + layout_.num_colors(pe);
    for (std::size_t ck = layout_.color_base(pe); ck < ck_end; ++ck) {
      if (!down_[ck].empty()) {
        any = true;
        next_ready = std::min(next_ready, down_[ck].front().ready);
      }
    }
    if (any) {
      queue_list_[keep++] = pe;
    } else {
      in_queue_list_[pe] = 0;
    }
  }
  queue_list_.resize(keep);
  return next_ready;
}

FabricResult FabricSim::run() {
  const u32 n = layout_.num_pes();
  // Everything with a program is initially runnable.
  for (u32 pe = 0; pe < n; ++pe) {
    if (!done_[pe]) wake_processor(pe);
  }

  i64 idle_cycles = 0;
  for (cycle_ = 0; cycle_ < opt_.max_cycles; ++cycle_) {
    bool changed = false;
    if (!simd_) {
      for (u32 pe = 0; pe < n; ++pe) changed |= step_processor(pe);
      for (u32 pe = 0; pe < n; ++pe) changed |= step_up_ramp(pe);
      changed |= router_step_fullscan();
    } else {
      // Timed wake-ups whose cycle has arrived re-enter the processor list.
      while (!wake_heap_.empty() && wake_heap_.front().first <= cycle_) {
        std::pop_heap(wake_heap_.begin(), wake_heap_.end(), std::greater<>());
        wake_processor(wake_heap_.back().second);
        wake_heap_.pop_back();
      }
      // Paced up-ramps whose front wavelet is now ready.
      while (!ramp_heap_.empty() && ramp_heap_.front().first <= cycle_) {
        std::pop_heap(ramp_heap_.begin(), ramp_heap_.end(), std::greater<>());
        note_up_pending(ramp_heap_.back().second);
        ramp_heap_.pop_back();
      }

      // Processors: visit order is irrelevant (each PE touches only its own
      // state); consume the list, step bodies re-add still-active PEs.
      scratch_.clear();
      scratch_.swap(proc_list_);
      for (u32 pe : scratch_) in_proc_list_[pe] = 0;
      for (u32 pe : scratch_) changed |= step_processor(pe);

      // Up-ramps: same consume-and-re-add scheme.
      scratch_.clear();
      scratch_.swap(up_list_);
      for (u32 pe : scratch_) in_up_list_[pe] = 0;
      for (u32 pe : scratch_) changed |= step_up_ramp(pe);

      changed |= router_step_simd();
    }

    if (done_count_ == n) break;

    if (changed) {
      idle_cycles = 0;
      continue;
    }
    // Nothing moved: either a timed event is pending (fast-forward to it) or
    // the fabric is deadlocked.
    const i64 next_ready = scan_next_ready();
    if (next_ready != INT64_MAX && next_ready > cycle_) {
      cycle_ = next_ready - 1;  // loop increment lands on next_ready
      idle_cycles = 0;
      continue;
    }
    if (++idle_cycles > 8) {
      std::fprintf(stderr,
                   "FabricSim deadlock in schedule '%s' at cycle %lld\n",
                   sched_->name.c_str(), static_cast<long long>(cycle_));
      for (u32 pe = 0; pe < n; ++pe) {
        const std::size_t num_ops = layout_.num_ops(pe);
        for (u32 oi = 0; oi < num_ops; ++oi) {
          const OpState& st = ops_[layout_.op_key(pe, oi)];
          if (!st.complete) {
            const Coord c = layout_.grid().coord(pe);
            std::fprintf(stderr, "  PE(%u,%u) op%u progress=%u/%u\n", c.x, c.y,
                         oi, st.progress, sched_->programs[pe].ops[oi].len);
          }
        }
      }
      WSR_ASSERT(false, "fabric deadlock");
    }
  }
  WSR_ASSERT(cycle_ < opt_.max_cycles, "fabric exceeded max_cycles");

  FabricResult res;
  res.wavelet_hops = hops_;
  res.memory.resize(n);
  res.op_done_cycle.resize(n);
  for (u32 pe = 0; pe < n; ++pe) {
    res.memory[pe] = mem_[pe];
    res.max_pe_ramp_wavelets =
        std::max(res.max_pe_ramp_wavelets, ramp_traffic_[pe]);
    const std::size_t num_ops = layout_.num_ops(pe);
    res.op_done_cycle[pe].resize(num_ops);
    for (u32 oi = 0; oi < num_ops; ++oi) {
      res.op_done_cycle[pe][oi] = ops_[layout_.op_key(pe, oi)].done_cycle;
      res.cycles = std::max(res.cycles, res.op_done_cycle[pe][oi] + 1);
    }
  }
  return res;
}

std::vector<std::vector<float>> make_inputs(const Schedule& s,
                                            float (*value_of)(u32 pe, u32 j)) {
  std::vector<std::vector<float>> data(s.grid.num_pes());
  for (u32 pe = 0; pe < data.size(); ++pe) {
    data[pe].resize(std::max<u32>(s.memory_words(), 1));
    for (u32 j = 0; j < s.vec_len; ++j) data[pe][j] = value_of(pe, j);
  }
  return data;
}

std::vector<float> expected_sum(const std::vector<std::vector<float>>& inputs,
                                u32 vec_len) {
  std::vector<float> sum(vec_len, 0.0f);
  for (const auto& v : inputs) {
    for (u32 j = 0; j < vec_len; ++j) sum[j] += v[j];
  }
  return sum;
}

FabricResult run_fabric(const Schedule& s,
                        const std::vector<std::vector<float>>& inputs,
                        FabricOptions options) {
  FabricSim sim(s, options);
  for (u32 pe = 0; pe < inputs.size(); ++pe) sim.set_memory(pe, inputs[pe]);
  return sim.run();
}

}  // namespace wsr::wse
