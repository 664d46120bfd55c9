#ifndef GSB_STORAGE_CLIQUE_SORT_H
#define GSB_STORAGE_CLIQUE_SORT_H

/// \file clique_sort.h
/// External sort of a clique set into the Clique Enumerator's emission
/// order: by size, then lexicographically by member ids.
///
/// Bron–Kerbosch finds the enumerator's maximal cliques in an order that
/// depends on the schedule.  CliqueSorter accepts them in any order (and
/// with members in any order) and replays them in (size, lex) order, so
/// a `.gsbc` written from its output is the enumerator's byte for byte.
///
/// Cliques are buffered in memory under a fixed byte budget, tracked as
/// MemTag::kCliqueStorage.  Each buffered clique is a 16-byte key whose
/// 64-bit prefix packs its leading members (as many as fit at
/// ceil(log2 order) bits each); only members past those go to an arena.
/// On the paper's graphs most cliques fit their key whole.  The sort is
/// an in-place MSD radix sort over the size and the prefix bytes; only
/// equal prefixes read the arena.
///
/// Past the budget the buffer is sorted and spilled as one sorted run
/// through GsbcWriter; finish() k-way merges the runs (GsbcReader) with
/// the last in-memory buffer — the way the tiled correlation builder
/// spills edges past its tile budget.  The budget holds two buffers: a
/// background thread sorts and writes a full one while add() fills the
/// other, so producers wait for the disk only when it falls a whole
/// buffer behind.  Resident memory is the budget plus one GsbcReader scan
/// window (64 KiB of mapped pages) per run, never the output.  When the
/// runs reach kMaxFanIn they are merged into one, so the open windows stay
/// bounded too.
///
/// Run files are named `<spill_base>.run<i>.tmp.<pid>`: a crash leaves
/// only names util::io::find_stale_temps reports (and `--clean-tmp`
/// removes).  The sorter deletes its runs when finish() returns and when
/// it is destroyed, so a throwing sink or a failed write leaves none.

#include <cstdint>
#include <functional>
#include <future>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/memory_tracker.h"

namespace gsb::storage {

/// The enumerator's emission order: by size, then lexicographically.
/// Both cliques must list their members ascending.
bool emission_less(std::span<const graph::VertexId> a,
                   std::span<const graph::VertexId> b);

/// Totals reported by CliqueSorter::finish().
struct CliqueSortStats {
  std::uint64_t cliques = 0;
  /// Sorted runs written to disk, counting the runs that fan-in merges
  /// write (0 = the whole set sorted in memory).
  std::uint64_t runs = 0;
  /// High-water mark of the tracked buffer bytes (<= the budget unless
  /// one clique alone outgrows half of it).
  std::size_t peak_bytes = 0;
  /// Wall seconds in finish(): final sort, merge and the sink.
  double seconds = 0.0;
};

class CliqueSorter {
 public:
  using Sink = std::function<void(std::span<const graph::VertexId>)>;

  static constexpr std::size_t kDefaultBudgetBytes = std::size_t{64} << 20;
  /// Runs merged at once; reaching it merges the runs into one.
  static constexpr std::size_t kMaxFanIn = 64;

  /// \p order is the vertex universe (member ids must be < order);
  /// \p spill_base prefixes the run files.  Nothing touches the disk
  /// until the buffer outgrows \p budget_bytes.
  CliqueSorter(std::size_t order, std::string spill_base,
               std::size_t budget_bytes = kDefaultBudgetBytes,
               util::MemoryTracker* tracker = nullptr);

  /// Waits for the background writer, deletes any run files and
  /// releases the tracked bytes.
  ~CliqueSorter();

  CliqueSorter(const CliqueSorter&) = delete;
  CliqueSorter& operator=(const CliqueSorter&) = delete;

  /// Buffers one clique (members in any order, non-empty, < order),
  /// spilling a sorted run first when the budget is full.
  void add(std::span<const graph::VertexId> clique);

  /// Streams every added clique to \p sink, members ascending, in (size,
  /// lex) order; then deletes the runs and frees the buffer.  Call once.
  CliqueSortStats finish(const Sink& sink);

 private:
  /// One buffered clique: its first min(size, packed_) members packed
  /// big-endian into `prefix` (bits_ bits each), the rest in the arena.
  struct Key {
    std::uint64_t prefix;
    std::uint32_t tail;  ///< arena offset of the members past the prefix
    std::uint32_t size;
  };
  struct Buffer {
    std::vector<graph::VertexId> arena;
    std::vector<Key> keys;
    std::size_t min_size = 0;  ///< size range of the keys
    std::size_t max_size = 0;
  };

  [[nodiscard]] bool make_room(std::size_t tail_members);
  void sort(Buffer& buffer) const;
  /// Writes \p key's members, ascending, to \p out.
  void unpack(const Buffer& buffer, const Key& key,
              std::vector<graph::VertexId>& out) const;
  /// Hands the full buffer to the background writer.
  void spill();
  void write_run(Buffer& buffer, const std::string& path) const;
  /// Waits for the background writer; rethrows its failure.
  void wait_for_writer();
  /// Merges every run into one when the fan-in limit is reached.
  void merge_runs();
  /// Streams runs_ (and, with \p with_buffer, the sorted buffer) to
  /// \p sink in (size, lex) order.
  void merge(bool with_buffer, const Sink& sink);
  [[nodiscard]] std::string next_run_path();
  void track();
  void remove_runs() noexcept;

  std::size_t order_;
  std::string spill_base_;
  std::size_t budget_;
  util::MemoryTracker& tracker_;
  unsigned bits_;        ///< bits per packed member id
  std::size_t packed_;   ///< members held in a key's prefix
  Buffer buffer_;        ///< filled by add()
  Buffer spilling_;      ///< owned by writer_ while it runs
  std::future<void> writer_;
  std::vector<graph::VertexId> scratch_;  ///< one clique, sorted
  std::vector<std::string> runs_;
  std::uint64_t next_run_ = 0;
  std::size_t tracked_ = 0;
  CliqueSortStats stats_;
  bool finished_ = false;
};

}  // namespace gsb::storage

#endif  // GSB_STORAGE_CLIQUE_SORT_H
