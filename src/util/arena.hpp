// Bump-pointer arena for per-request transient allocations.
//
// The admit path builds short-lived byte strings — the rule engine's
// rate-limit keys, decimal renderings of strong ids — whose lifetimes all end
// when the request finishes. A bump allocator makes each of them a pointer
// increment instead of a heap round-trip: allocate forward through a chunk,
// never free individually, reset the whole arena between requests. reset() keeps the
// chunks, so a warmed-up arena serves every subsequent request without
// touching the heap at all.
//
// The arena is also the perf harness's allocation probe: every allocation and
// byte is tallied in Stats, so BENCH_core.json can pin "allocations per
// admitted request" as a tracked number instead of a guess.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace fraudsim::util {

class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = 4096);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Uninitialised storage, aligned to `align` (power of two). Oversized
  // requests get a dedicated chunk; the arena never fails short of the heap
  // failing.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t));

  // Copies `s` into the arena and returns a view of the copy.
  [[nodiscard]] std::string_view copy(std::string_view s);

  // Renders `v` in decimal into the arena.
  [[nodiscard]] std::string_view format_u64(std::uint64_t v);

  // Concatenates two views into one arena-backed string.
  [[nodiscard]] std::string_view concat(std::string_view a, std::string_view b);

  // Rewinds every chunk. Previously returned pointers become dangling; the
  // chunk memory itself is retained, so a steady-state reset/allocate cycle
  // performs no heap traffic.
  void reset();

  struct Stats {
    std::uint64_t allocations = 0;    // allocate() calls since construction
    std::uint64_t bytes = 0;          // bytes handed out since construction
    std::uint64_t resets = 0;         // reset() calls
    std::uint64_t chunk_allocs = 0;   // heap chunks ever acquired
    std::size_t high_water = 0;       // max in-use bytes between two resets
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // In-use bytes since the last reset (sum over chunks).
  [[nodiscard]] std::size_t used() const { return used_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t cursor = 0;
  };

  Chunk& grow(std::size_t min_bytes);

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  // chunks_[active_] is the bump target
  std::size_t used_ = 0;
  Stats stats_;
};

}  // namespace fraudsim::util
