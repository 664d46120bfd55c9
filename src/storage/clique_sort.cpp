#include "storage/clique_sort.h"

#include <algorithm>
#include <array>
#include <bit>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "storage/clique_stream.h"
#include "util/io.h"
#include "util/timer.h"

namespace gsb::storage {
namespace {

using graph::VertexId;

/// Smallest capacity a buffer grows to, in elements.
constexpr std::size_t kMinCapacity = 1024;

/// MSD radix sort digits: 8 bits each, the key's size (its offset from
/// the smallest buffered size) first, then the prefix's bytes from the
/// top.  Ranges this small go to std::sort instead.
constexpr std::size_t kRadix = 256;
constexpr int kSizeDigit = 8;
constexpr std::ptrdiff_t kSmallRange = 64;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("clique sort: " + what);
}

/// Capacity that holds \p need elements: doubling from \p cap, never
/// past \p limit (so possibly below \p need).
std::size_t grown(std::size_t cap, std::size_t need, std::size_t limit) {
  if (need <= cap) return cap;
  return std::min(std::max({2 * cap, need, kMinCapacity}), limit);
}

/// Sorts [first, last), whose keys agree on every digit above \p digit,
/// in place (American flag sort): one counting pass, one permutation
/// into 256 buckets, then each bucket on the next digit.  Equal
/// prefixes, the only order the digits cannot settle, reach std::sort
/// with \p less, which reads the members past the prefix.
template <typename Key, typename Less>
void radix_sort(Key* first, Key* last, int digit, std::size_t min_size,
                const Less& less) {
  if (last - first <= kSmallRange || digit < 0) {
    std::sort(first, last, less);
    return;
  }
  const auto bucket = [digit, min_size](const Key& key) -> std::size_t {
    return digit == kSizeDigit ? key.size - min_size
                               : (key.prefix >> (8 * digit)) & 0xFF;
  };
  std::array<std::ptrdiff_t, kRadix + 1> start{};
  for (const Key* key = first; key != last; ++key) ++start[bucket(*key) + 1];
  for (std::size_t b = 0; b < kRadix; ++b) start[b + 1] += start[b];
  std::array<std::ptrdiff_t, kRadix> next;
  std::copy_n(start.begin(), kRadix, next.begin());
  for (std::size_t b = 0; b < kRadix; ++b) {
    while (next[b] < start[b + 1]) {
      const std::size_t home = bucket(first[next[b]]);
      if (home == b) {
        ++next[b];
      } else {
        std::swap(first[next[b]], first[next[home]++]);
      }
    }
  }
  for (std::size_t b = 0; b < kRadix; ++b) {
    radix_sort(first + start[b], first + start[b + 1], digit - 1, min_size,
               less);
  }
}

}  // namespace

bool emission_less(std::span<const VertexId> a, std::span<const VertexId> b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

CliqueSorter::CliqueSorter(std::size_t order, std::string spill_base,
                           std::size_t budget_bytes,
                           util::MemoryTracker* tracker)
    : order_(order),
      spill_base_(std::move(spill_base)),
      budget_(budget_bytes),
      tracker_(tracker != nullptr ? *tracker
                                  : util::global_memory_tracker()),
      bits_(order > 1 ? static_cast<unsigned>(std::bit_width(order - 1))
                      : 1u),
      packed_(64 / bits_) {}

CliqueSorter::~CliqueSorter() {
  if (writer_.valid()) writer_.wait();  // its failure is moot here
  remove_runs();
  tracker_.release(tracked_, util::MemTag::kCliqueStorage);
}

void CliqueSorter::add(std::span<const VertexId> clique) {
  if (finished_) fail("add after finish");
  if (clique.empty()) fail("empty clique");
  scratch_.assign(clique.begin(), clique.end());
  std::sort(scratch_.begin(), scratch_.end());
  if (scratch_.back() >= order_ ||
      std::adjacent_find(scratch_.begin(), scratch_.end()) !=
          scratch_.end()) {
    fail("member out of range or duplicated");
  }
  const std::size_t size = scratch_.size();
  const std::size_t head = std::min(packed_, size);
  if (!make_room(size - head)) {
    spill();
    if (!make_room(size - head)) {
      // One clique larger than a whole buffer: hold it regardless.
      buffer_.arena.reserve(buffer_.arena.size() + size - head);
      buffer_.keys.reserve(buffer_.keys.size() + 1);
      track();
    }
  }
  std::uint64_t prefix = 0;
  for (std::size_t i = 0; i < head; ++i) {
    prefix |= std::uint64_t{scratch_[i]} << (64 - bits_ * (i + 1));
  }
  buffer_.keys.push_back(
      Key{prefix, static_cast<std::uint32_t>(buffer_.arena.size()),
          static_cast<std::uint32_t>(size)});
  buffer_.arena.insert(buffer_.arena.end(),
                       scratch_.begin() + static_cast<std::ptrdiff_t>(head),
                       scratch_.end());
  const bool first = buffer_.keys.size() == 1;
  buffer_.min_size = first ? size : std::min(buffer_.min_size, size);
  buffer_.max_size = first ? size : std::max(buffer_.max_size, size);
  ++stats_.cliques;
}

CliqueSortStats CliqueSorter::finish(const Sink& sink) {
  if (finished_) fail("finish called twice");
  finished_ = true;
  util::Timer timer;
  wait_for_writer();
  sort(buffer_);
  if (runs_.empty()) {
    std::vector<VertexId> members;
    for (const Key& key : buffer_.keys) {
      unpack(buffer_, key, members);
      sink(members);
    }
  } else {
    merge(/*with_buffer=*/true, sink);
  }
  buffer_ = {};
  spilling_ = {};
  track();
  remove_runs();
  stats_.seconds = timer.seconds();
  return stats_;
}

bool CliqueSorter::make_room(std::size_t tail_members) {
  std::vector<VertexId>& arena = buffer_.arena;
  std::vector<Key>& keys = buffer_.keys;
  const std::size_t arena_need = arena.size() + tail_members;
  const std::size_t keys_need = keys.size() + 1;
  if (arena_need <= arena.capacity() && keys_need <= keys.capacity()) {
    return true;
  }
  if (arena_need > std::numeric_limits<std::uint32_t>::max()) return false;
  // Each of the two buffers gets half the budget, shared between its
  // arena and keys: each grows by doubling into whatever the other
  // leaves, so neither is ever less than half full.
  const std::size_t half = budget_ / 2;
  const auto room = [half](std::size_t other_bytes, std::size_t unit) {
    return (half - std::min(half, other_bytes)) / unit;
  };
  const std::size_t arena_cap =
      grown(arena.capacity(), arena_need,
            room(keys.capacity() * sizeof(Key), sizeof(VertexId)));
  const std::size_t keys_cap =
      grown(keys.capacity(), keys_need,
            room(arena_cap * sizeof(VertexId), sizeof(Key)));
  if (arena_cap < arena_need || keys_cap < keys_need) return false;
  arena.reserve(arena_cap);
  keys.reserve(keys_cap);
  track();
  return true;
}

void CliqueSorter::sort(Buffer& buffer) const {
  const VertexId* arena = buffer.arena.data();
  const std::size_t packed = packed_;
  const auto less = [arena, packed](const Key& a, const Key& b) {
    if (a.size != b.size) return a.size < b.size;
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    if (a.size <= packed) return false;  // the same clique
    const std::size_t tail = a.size - packed;
    return std::lexicographical_compare(arena + a.tail, arena + a.tail + tail,
                                        arena + b.tail, arena + b.tail + tail);
  };
  std::vector<Key>& keys = buffer.keys;
  if (buffer.max_size - buffer.min_size >= kRadix) {
    std::sort(keys.begin(), keys.end(), less);
    return;
  }
  radix_sort(keys.data(), keys.data() + keys.size(), kSizeDigit,
             buffer.min_size, less);
}

void CliqueSorter::unpack(const Buffer& buffer, const Key& key,
                          std::vector<VertexId>& out) const {
  const std::size_t head = std::min<std::size_t>(key.size, packed_);
  const std::uint64_t mask = (std::uint64_t{1} << bits_) - 1;
  out.resize(key.size);
  for (std::size_t i = 0; i < head; ++i) {
    out[i] = static_cast<VertexId>((key.prefix >> (64 - bits_ * (i + 1))) &
                                   mask);
  }
  std::copy_n(buffer.arena.data() + key.tail, key.size - head,
              out.data() + head);
}

void CliqueSorter::spill() {
  if (buffer_.keys.empty()) return;
  wait_for_writer();
  if (runs_.size() == kMaxFanIn) merge_runs();
  // The writer's last buffer, cleared but with its capacity, becomes the
  // one add() fills next.
  std::swap(buffer_, spilling_);
  // Listed before it exists, so a failed write is cleaned up too.
  runs_.push_back(next_run_path());
  writer_ = std::async(std::launch::async,
                       [this, path = runs_.back()] {
                         write_run(spilling_, path);
                       });
  ++stats_.runs;
}

void CliqueSorter::write_run(Buffer& buffer, const std::string& path) const {
  sort(buffer);
  GsbcWriter run(path, order_);
  std::vector<VertexId> members;
  for (const Key& key : buffer.keys) {
    unpack(buffer, key, members);
    run.append(members);
  }
  run.close();
  buffer.arena.clear();
  buffer.keys.clear();
}

void CliqueSorter::wait_for_writer() {
  if (writer_.valid()) writer_.get();
}

void CliqueSorter::merge_runs() {
  const std::size_t inputs = runs_.size();
  const std::string path = next_run_path();
  GsbcWriter merged(path, order_);
  merge(/*with_buffer=*/false, [&merged](std::span<const VertexId> clique) {
    merged.append(clique);
  });
  runs_.push_back(path);
  merged.close();
  ++stats_.runs;
  std::error_code ec;
  for (std::size_t i = 0; i < inputs; ++i) {
    std::filesystem::remove(runs_[i], ec);
  }
  runs_.erase(runs_.begin(),
              runs_.begin() + static_cast<std::ptrdiff_t>(inputs));
}

void CliqueSorter::merge(bool with_buffer, const Sink& sink) {
  struct Source {
    std::optional<GsbcReader> run;     ///< empty: the in-memory buffer
    std::vector<VertexId> clique;      ///< the current record
    std::size_t next_key = 0;
  };
  std::vector<Source> sources(runs_.size() +
                              (with_buffer && !buffer_.keys.empty() ? 1 : 0));
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    sources[i].run.emplace(GsbcReader::open(runs_[i]));
  }
  const auto advance = [this](Source& s) {
    if (s.run) return s.run->next(s.clique);
    if (s.next_key == buffer_.keys.size()) return false;
    unpack(buffer_, buffer_.keys[s.next_key++], s.clique);
    return true;
  };
  // A min-heap of source indices on their current cliques.
  const auto later = [&sources](std::size_t a, std::size_t b) {
    return emission_less(sources[b].clique, sources[a].clique);
  };
  std::vector<std::size_t> heap;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (advance(sources[i])) heap.push_back(i);
  }
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Source& source = sources[heap.back()];
    sink(source.clique);
    if (advance(source)) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
}

std::string CliqueSorter::next_run_path() {
  return util::io::temp_path_for(spill_base_ + ".run" +
                                 std::to_string(next_run_++));
}

void CliqueSorter::track() {
  const std::size_t bytes =
      (buffer_.arena.capacity() + spilling_.arena.capacity()) *
          sizeof(VertexId) +
      (buffer_.keys.capacity() + spilling_.keys.capacity()) * sizeof(Key);
  if (bytes > tracked_) {
    tracker_.allocate(bytes - tracked_, util::MemTag::kCliqueStorage);
  } else {
    tracker_.release(tracked_ - bytes, util::MemTag::kCliqueStorage);
  }
  tracked_ = bytes;
  stats_.peak_bytes = std::max(stats_.peak_bytes, bytes);
}

void CliqueSorter::remove_runs() noexcept {
  std::error_code ec;
  for (const std::string& path : runs_) std::filesystem::remove(path, ec);
  runs_.clear();
}

}  // namespace gsb::storage
