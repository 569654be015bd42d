#include "registry/algorithm_registry.hpp"

#include <algorithm>
#include <tuple>

namespace wsr::registry {

const char* name(Collective c) {
  switch (c) {
    case Collective::Broadcast: return "Broadcast";
    case Collective::Reduce: return "Reduce";
    case Collective::AllReduce: return "AllReduce";
    case Collective::AllGather: return "AllGather";
    case Collective::ReduceScatter: return "ReduceScatter";
  }
  return "?";
}

const char* name(Dims d) {
  switch (d) {
    case Dims::OneD: return "1D";
    case Dims::TwoD: return "2D";
  }
  return "?";
}

// Defined in builtin_algorithms.cpp; registers every paper algorithm plus
// the library's extensions.
void register_builtin_algorithms(AlgorithmRegistry& reg);

AlgorithmRegistry::AlgorithmRegistry() { register_builtin_algorithms(*this); }

AlgorithmRegistry& AlgorithmRegistry::instance() {
  // Thread-safe magic-static init: builtins finish registering before the
  // first caller can query.
  static AlgorithmRegistry reg;
  return reg;
}

void AlgorithmRegistry::register_algorithm(AlgorithmDescriptor desc) {
  WSR_ASSERT(!desc.name.empty(), "descriptor needs a name");
  WSR_ASSERT(desc.applicable && desc.cost && desc.build,
             "descriptor needs applicable/cost/build hooks");
  WSR_ASSERT(find(desc.collective, desc.dims, desc.name) == nullptr,
             "duplicate algorithm registration");
  auto entry = std::make_unique<AlgorithmDescriptor>(std::move(desc));
  // Keep the whole table sorted (collective, dims, name): queries then slice
  // out name-sorted families without re-sorting.
  const auto key = [](const AlgorithmDescriptor& d) {
    return std::tuple<u8, u8, const std::string&>(
        static_cast<u8>(d.collective), static_cast<u8>(d.dims), d.name);
  };
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), entry,
      [&](const auto& a, const auto& b) { return key(*a) < key(*b); });
  entries_.insert(pos, std::move(entry));
}

std::vector<const AlgorithmDescriptor*> AlgorithmRegistry::query(
    Collective c, Dims d, bool selectable_only) const {
  std::vector<const AlgorithmDescriptor*> out;
  for (const auto& e : entries_) {
    if (e->collective != c || e->dims != d) continue;
    if (selectable_only && !e->auto_selectable) continue;
    out.push_back(e.get());
  }
  return out;
}

const AlgorithmDescriptor* AlgorithmRegistry::find(Collective c, Dims d,
                                                   std::string_view name) const {
  for (const auto& e : entries_) {
    if (e->collective == c && e->dims == d && e->name == name) return e.get();
  }
  return nullptr;
}

const AlgorithmDescriptor& AlgorithmRegistry::at(Collective c, Dims d,
                                                 std::string_view name) const {
  const AlgorithmDescriptor* desc = find(c, d, name);
  WSR_ASSERT(desc != nullptr, "algorithm not registered for this family");
  return *desc;
}

std::vector<const AlgorithmDescriptor*> AlgorithmRegistry::all() const {
  std::vector<const AlgorithmDescriptor*> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.get());
  return out;
}

}  // namespace wsr::registry
