#ifndef GSB_STORAGE_GSBG_FORMAT_H
#define GSB_STORAGE_GSBG_FORMAT_H

/// \file gsbg_format.h
/// On-disk layout of the `.gsbg` graph container — the persistent half of
/// the out-of-core storage engine.
///
/// A `.gsbg` file is a fixed 64-byte header, a section table, and a set of
/// 64-byte-aligned sections.  The compact CSR sections are always present
/// (they are the canonical, smallest lossless encoding); the bitmap section
/// is the memory-mappable row-major adjacency the clique kernels consume
/// zero-copy (identical layout to the in-RAM representation, so mapping it
/// costs nothing over loading it — the OS pages in only the rows that are
/// touched); the WAH sections store each row compressed with
/// bits::WahBitset for cold archival of sparse genome-scale graphs.
///
/// All integers are little-endian; the format is declared for
/// little-endian hosts (checked at open on the magic).  Byte layout:
///
///   Header (64 bytes, offset 0):
///     char[8]  magic      "GSBGRPH1"
///     u32      version    kVersion
///     u32      flags      bit 0: degree-sorted (PERMUTATION present)
///     u64      n          number of vertices
///     u64      m          number of undirected edges
///     u64      checksum   FNV-1a 64 over bytes [64, file size)
///     u64      section_count
///     u64[2]   reserved   zero
///   Section table (offset 64): section_count entries of 32 bytes
///     u32      kind       SectionKind
///     u32      reserved   zero
///     u64      offset     absolute, 64-byte aligned
///     u64      size       payload bytes (excluding alignment padding)
///     u64      reserved2  zero
///   Sections (in kind order, each 64-byte aligned, zero-padded):
///     kCsrOffsets   (n+1) u64    row r's neighbors are targets[off[r]..off[r+1])
///     kCsrTargets   2m u32       sorted neighbor ids per row
///     kBitmap       n*wpr u64    wpr = ceil(n/64); row r at word r*wpr;
///                                bits >= n in a row's last word are zero
///     kWahOffsets   (n+1) u64    u32-word offsets into kWahWords per row
///     kWahWords     ... u32      concatenated WahBitset words
///     kPermutation  n u32        original id of stored vertex i
///
/// The checksum covers the section table and every section including
/// alignment padding, so truncation, bit rot, and table tampering are all
/// detectable with one pass.

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gsb::storage {

inline constexpr char kMagic[8] = {'G', 'S', 'B', 'G', 'R', 'P', 'H', '1'};
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 64;
inline constexpr std::size_t kSectionEntryBytes = 32;
inline constexpr std::size_t kSectionAlign = 64;

/// Header flag bits.
inline constexpr std::uint32_t kFlagDegreeSorted = 1u << 0;

enum class SectionKind : std::uint32_t {
  kCsrOffsets = 1,
  kCsrTargets = 2,
  kBitmap = 3,
  kWahOffsets = 4,
  kWahWords = 5,
  kPermutation = 6,
};

/// In-memory mirror of the fixed header (not the serialized form; the
/// reader/writer move fields explicitly to stay layout-exact).
struct GsbgHeader {
  std::uint32_t version = kVersion;
  std::uint32_t flags = 0;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t checksum = 0;
  std::uint64_t section_count = 0;
};

/// One section-table entry.
struct GsbgSection {
  SectionKind kind{};
  std::uint64_t offset = 0;  ///< absolute file offset, 64-byte aligned
  std::uint64_t size = 0;    ///< payload bytes
};

/// Incremental FNV-1a 64 — the container's integrity checksum.  Chosen for
/// being dependency-free, streaming, and byte-order independent.
///
/// A zero byte's step is a bare multiply (h ^= 0 changes nothing), so an
/// all-zero 8-byte word folds in as h *= P^8, which equals the eight byte
/// steps mod 2^64.  Sparse bitmap sections are almost all zero words.
class Fnv1a {
 public:
  void update(const void* data, std::size_t bytes) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = hash_;
    std::size_t i = 0;
    for (; i + 8 <= bytes; i += 8) {
      std::uint64_t word;
      std::memcpy(&word, p + i, sizeof(word));
      if (word == 0) {
        h *= kPrime8;
        continue;
      }
      for (std::size_t b = i; b < i + 8; ++b) {
        h ^= p[b];
        h *= kPrime;
      }
    }
    for (; i < bytes; ++i) {
      h ^= p[i];
      h *= kPrime;
    }
    hash_ = h;
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  static constexpr std::uint64_t kPrime8 =
      kPrime * kPrime * kPrime * kPrime * kPrime * kPrime * kPrime * kPrime;

  std::uint64_t hash_ = 14695981039346656037ull;
};

/// Rounds \p offset up to the section alignment.
constexpr std::uint64_t align_up(std::uint64_t offset) noexcept {
  return (offset + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

}  // namespace gsb::storage

#endif  // GSB_STORAGE_GSBG_FORMAT_H
