// 2D collectives (paper Section 7): flooding broadcast, X-Y compositions and
// the Snake. X-Y schedules reuse the 1D phase builders over row/column lanes;
// rows run on colors [0,5), columns on [5,10), broadcast on 10, so phases
// never interfere (different rows/columns also never share links).
#include "collectives/collectives.hpp"
#include "wse/checks.hpp"

namespace wsr::collectives {

namespace {

constexpr Color kRowBase = 0;
constexpr Color kColBase = 5;
constexpr Color kBcast2D = 10;

/// 2D flooding broadcast from (0,0) (Lemma 7.1): the root's stream floods
/// east along row 0; every row-0 router also multicasts it south into its
/// column; column routers multicast to their PE and onwards south. One color.
Deps build_broadcast_2d(Schedule& s, Color c, const Deps& after) {
  const GridShape g = s.grid;
  const u32 B = s.vec_len;
  Deps out = no_deps(s);
  for (u32 x = 0; x < g.width; ++x) {
    const u32 pe = g.pe_id(x, 0);
    DirMask fwd = 0;
    if (x + 1 < g.width) fwd |= dir_bit(Dir::East);
    if (g.height > 1) fwd |= dir_bit(Dir::South);
    if (x == 0) {
      out[pe] = s.program(pe).add([&] {
        Op op = Op::send(c, B);
        if (after[pe] >= 0) op.after(static_cast<u32>(after[pe]));
        return op;
      }());
      WSR_ASSERT(fwd != 0, "broadcast on a 1x1 grid");
      s.add_rule(pe, {c, Dir::Ramp, fwd, B});
    } else {
      fwd |= dir_bit(Dir::Ramp);
      out[pe] = s.program(pe).add([&] {
        Op op = Op::recv(c, B, RecvMode::Store);
        if (after[pe] >= 0) op.after(static_cast<u32>(after[pe]));
        return op;
      }());
      s.add_rule(pe, {c, Dir::West, fwd, B});
    }
  }
  for (u32 y = 1; y < g.height; ++y) {
    for (u32 x = 0; x < g.width; ++x) {
      const u32 pe = g.pe_id(x, y);
      DirMask fwd = dir_bit(Dir::Ramp);
      if (y + 1 < g.height) fwd |= dir_bit(Dir::South);
      out[pe] = s.program(pe).add([&] {
        Op op = Op::recv(c, B, RecvMode::Store);
        if (after[pe] >= 0) op.after(static_cast<u32>(after[pe]));
        return op;
      }());
      s.add_rule(pe, {c, Dir::North, fwd, B});
    }
  }
  return out;
}

/// X-Y Reduce phases: 1D reduce over every row towards column 0, then over
/// column 0 towards (0,0). Returns the per-PE final ops.
Deps build_xy_reduce(Schedule& s, ReduceAlgo algo_x, ReduceAlgo algo_y,
                     const autogen::AutoGenModel* model, const Deps& after) {
  const GridShape g = s.grid;
  Deps done = after;
  for (u32 y = 0; y < g.height; ++y) {
    const Deps fin =
        build_reduce(s, Lane::row(g, y), algo_x, model, kRowBase, after);
    for (u32 x = 0; x < g.width; ++x) {
      const u32 pe = g.pe_id(x, y);
      if (fin[pe] >= 0) done[pe] = fin[pe];
    }
  }
  const Deps col =
      build_reduce(s, Lane::column(g, 0), algo_y, model, kColBase, done);
  for (u32 y = 0; y < g.height; ++y) {
    const u32 pe = g.pe_id(0, y);
    if (col[pe] >= 0) done[pe] = col[pe];
  }
  return done;
}

}  // namespace

Schedule make_broadcast_2d(GridShape grid, u32 vec_len) {
  WSR_ASSERT(grid.num_pes() >= 2, "broadcast needs >= 2 PEs");
  Schedule s(grid, vec_len, "broadcast-2d");
  build_broadcast_2d(s, 0, no_deps(s));
  for (u32 pe = 0; pe < grid.num_pes(); ++pe) s.result_pes.push_back(pe);
  wse::check_valid(s);
  return s;
}

Schedule make_reduce_2d_xy(ReduceAlgo algo, GridShape grid, u32 vec_len,
                           const autogen::AutoGenModel* model) {
  WSR_ASSERT(grid.width >= 2 && grid.height >= 2, "xy needs a 2D grid");
  Schedule s(grid, vec_len, std::string("reduce-2d-xy-") + name(algo));
  build_xy_reduce(s, algo, algo, model, no_deps(s));
  s.result_pes.push_back(grid.pe_id(0, 0));
  wse::check_valid(s);
  return s;
}

Schedule make_reduce_2d_xy_mixed(ReduceAlgo algo_x, ReduceAlgo algo_y,
                                 GridShape grid, u32 vec_len,
                                 const autogen::AutoGenModel* model) {
  WSR_ASSERT(grid.width >= 2 && grid.height >= 2, "xy needs a 2D grid");
  Schedule s(grid, vec_len, std::string("reduce-2d-xy-") + name(algo_x) + "/" +
                                name(algo_y));
  build_xy_reduce(s, algo_x, algo_y, model, no_deps(s));
  s.result_pes.push_back(grid.pe_id(0, 0));
  wse::check_valid(s);
  return s;
}

Schedule make_reduce_2d_snake(GridShape grid, u32 vec_len) {
  WSR_ASSERT(grid.num_pes() >= 2, "snake needs >= 2 PEs");
  Schedule s(grid, vec_len, "reduce-2d-snake");
  build_chain_reduce(s, Lane::snake(grid), 0, 1, no_deps(s));
  s.result_pes.push_back(grid.pe_id(0, 0));
  wse::check_valid(s);
  return s;
}

Schedule make_allreduce_2d_xy(ReduceAlgo algo, GridShape grid, u32 vec_len,
                              const autogen::AutoGenModel* model) {
  WSR_ASSERT(grid.width >= 2 && grid.height >= 2, "xy needs a 2D grid");
  Schedule s(grid, vec_len, std::string("allreduce-2d-xy-") + name(algo));
  // Row AllReduce: reduce to column 0, broadcast back along each row.
  Deps done = no_deps(s);
  for (u32 y = 0; y < grid.height; ++y) {
    const Lane row = Lane::row(grid, y);
    const Deps reduced =
        build_reduce(s, row, algo, model, kRowBase, no_deps(s));
    const Deps bcast = build_broadcast(s, row, kRowBase + 4, reduced);
    for (u32 x = 0; x < grid.width; ++x) {
      const u32 pe = grid.pe_id(x, y);
      done[pe] = bcast[pe];
    }
  }
  // Column AllReduce on every column.
  for (u32 x = 0; x < grid.width; ++x) {
    const Lane col = Lane::column(grid, x);
    const Deps reduced = build_reduce(s, col, algo, model, kColBase, done);
    build_broadcast(s, col, kColBase + 4, reduced);
  }
  for (u32 pe = 0; pe < grid.num_pes(); ++pe) s.result_pes.push_back(pe);
  wse::check_valid(s);
  return s;
}

Schedule make_allreduce_2d_xy_ring(GridShape grid, u32 vec_len) {
  WSR_ASSERT(grid.width >= 2 && grid.height >= 2, "xy needs a 2D grid");
  Schedule s(grid, vec_len, "allreduce-2d-xy-ring");
  Deps done = no_deps(s);
  for (u32 y = 0; y < grid.height; ++y) {
    const Deps fin = build_ring_allreduce(s, Lane::row(grid, y),
                                          RingMapping::Simple, 0, no_deps(s));
    for (u32 x = 0; x < grid.width; ++x) {
      const u32 pe = grid.pe_id(x, y);
      done[pe] = fin[pe];
    }
  }
  for (u32 x = 0; x < grid.width; ++x) {
    build_ring_allreduce(s, Lane::column(grid, x), RingMapping::Simple, 8, done);
  }
  for (u32 pe = 0; pe < grid.num_pes(); ++pe) s.result_pes.push_back(pe);
  wse::check_valid(s);
  return s;
}

Schedule make_allreduce_2d_snake_bcast(GridShape grid, u32 vec_len) {
  WSR_ASSERT(grid.width >= 2 && grid.height >= 2, "snake+bcast needs a 2D grid");
  Schedule s(grid, vec_len, "allreduce-2d-snake+bcast");
  const Deps reduced = build_chain_reduce(s, Lane::snake(grid), 0, 1, no_deps(s));
  build_broadcast_2d(s, kBcast2D, reduced);
  for (u32 pe = 0; pe < grid.num_pes(); ++pe) s.result_pes.push_back(pe);
  wse::check_valid(s);
  return s;
}

}  // namespace wsr::collectives
