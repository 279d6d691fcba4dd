#include "util/intern.hpp"

#include <stdexcept>

namespace fraudsim::util {

InternTable::Id InternTable::intern(std::string_view s) {
  if (auto it = ids_.find(s); it != ids_.end()) return it->second;
  Id id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<Id>(slots_.size() + 1);
    slots_.push_back(nullptr);
  }
  auto [it, inserted] = ids_.emplace(std::string(s), id);
  (void)inserted;
  slots_[id - 1] = &it->first;
  return id;
}

InternTable::Id InternTable::find(std::string_view s) const {
  auto it = ids_.find(s);
  return it == ids_.end() ? 0 : it->second;
}

const std::string& InternTable::str(Id id) const {
  if (!contains(id)) throw std::out_of_range("InternTable::str: dead id");
  return *slots_[id - 1];
}

bool InternTable::contains(Id id) const {
  return id != 0 && id <= slots_.size() && slots_[id - 1] != nullptr;
}

void InternTable::erase(Id id) {
  if (!contains(id)) return;
  ids_.erase(*slots_[id - 1]);
  slots_[id - 1] = nullptr;
  free_.push_back(id);
}

void InternTable::clear() {
  ids_.clear();
  slots_.clear();
  free_.clear();
}

void InternTable::checkpoint(ByteWriter& out) const {
  out.u64(slots_.size());
  for (const auto* slot : slots_) {
    out.boolean(slot != nullptr);
    if (slot != nullptr) out.str(*slot);
  }
  out.u64(free_.size());
  for (const Id id : free_) out.u32(id);
}

void InternTable::restore(ByteReader& in) {
  clear();
  // Each slot takes at least its presence byte, each free id its u32.
  const auto slot_count = in.count(1);
  slots_.resize(static_cast<std::size_t>(slot_count), nullptr);
  for (std::uint64_t i = 0; i < slot_count && in.ok(); ++i) {
    if (!in.boolean()) continue;
    auto [it, inserted] = ids_.emplace(in.str(), static_cast<Id>(i + 1));
    if (!inserted) in.fail();  // two ids for one key
    slots_[static_cast<std::size_t>(i)] = &it->first;
  }
  // The free list must name every empty slot exactly once and nothing else,
  // or a later intern() would reuse a live id or index past slots_.
  const auto free_count = in.count(4);
  if (in.ok() && free_count != slots_.size() - ids_.size()) in.fail();
  std::vector<bool> freed(slots_.size(), false);
  free_.reserve(static_cast<std::size_t>(free_count));
  for (std::uint64_t i = 0; i < free_count && in.ok(); ++i) {
    const Id id = static_cast<Id>(in.u32());
    if (id == 0 || id > slots_.size() || slots_[id - 1] != nullptr || freed[id - 1]) {
      in.fail();
      break;
    }
    freed[id - 1] = true;
    free_.push_back(id);
  }
  if (!in.ok()) clear();
}

}  // namespace fraudsim::util
