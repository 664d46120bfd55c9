#include "service/clique_index.h"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "storage/clique_stream.h"

namespace gsb::service {
namespace {

using storage::GsbciHeader;
using storage::kGsbciHeaderBytes;
using storage::kGsbciMagic;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("gsbci: " + what);
}

void serialize_header(char (&buffer)[kGsbciHeaderBytes],
                      const GsbciHeader& header) {
  std::memset(buffer, 0, sizeof(buffer));
  std::memcpy(buffer, kGsbciMagic, sizeof(kGsbciMagic));
  std::memcpy(buffer + 8, &header.version, 4);
  std::memcpy(buffer + 12, &header.flags, 4);
  std::memcpy(buffer + 16, &header.n, 8);
  std::memcpy(buffer + 24, &header.clique_count, 8);
  std::memcpy(buffer + 32, &header.posting_total, 8);
  std::memcpy(buffer + 40, &header.source_checksum, 8);
  std::memcpy(buffer + 48, &header.checksum, 8);
}

/// Writes one u64 array as payload bytes, folding it into \p sum.
void write_array(util::io::FileWriter& out, storage::Fnv1a& sum,
                 const std::vector<std::uint64_t>& values) {
  const auto* bytes = reinterpret_cast<const char*>(values.data());
  const std::size_t count = values.size() * sizeof(std::uint64_t);
  sum.update(bytes, count);
  out.write(bytes, count);
}

}  // namespace

std::string default_index_path(const std::string& gsbc_path) {
  if (gsbc_path.ends_with(".gsbc")) return gsbc_path + "i";
  return gsbc_path + ".gsbci";
}

CliqueIndexBuildStats build_clique_index(const std::string& gsbc_path,
                                         const std::string& out_path) {
  // Pass 1: record offsets + per-vertex participation counts.
  auto reader = storage::GsbcReader::open(gsbc_path);
  GsbciHeader header;
  header.n = reader.header().n;
  header.clique_count = reader.header().clique_count;
  header.posting_total = reader.header().member_total;
  header.source_checksum = reader.header().checksum;

  std::vector<std::uint64_t> clique_offsets;
  clique_offsets.reserve(header.clique_count);
  std::vector<std::uint64_t> posting_offsets(header.n + 1, 0);
  std::vector<graph::VertexId> clique;
  while (true) {
    const std::uint64_t offset = reader.next_record_offset();
    if (!reader.next(clique)) break;
    clique_offsets.push_back(offset);
    for (const graph::VertexId v : clique) ++posting_offsets[v + 1];
  }
  for (std::size_t v = 0; v < header.n; ++v) {
    posting_offsets[v + 1] += posting_offsets[v];
  }

  // Pass 2: fill the inverted postings in clique-id order, so every
  // per-vertex list comes out ascending (== stream order).
  std::vector<std::uint64_t> postings(header.posting_total);
  std::vector<std::uint64_t> cursor(posting_offsets.begin(),
                                    posting_offsets.end() - 1);
  auto refill = reader.scan();
  for (std::uint64_t id = 0; refill.next(clique); ++id) {
    for (const graph::VertexId v : clique) postings[cursor[v]++] = id;
  }

  // Crash safety: the index is assembled in `<out_path>.tmp.<pid>` and
  // atomically renamed on commit, like the .gsbg/.gsbc writers.
  util::io::FileWriter out(out_path);
  char raw[kGsbciHeaderBytes];
  serialize_header(raw, header);  // placeholder; patched below
  out.write(raw, sizeof(raw));
  storage::Fnv1a sum;
  write_array(out, sum, clique_offsets);
  write_array(out, sum, posting_offsets);
  write_array(out, sum, postings);
  header.checksum = sum.digest();
  serialize_header(raw, header);
  out.write_at(0, raw, sizeof(raw));
  out.commit();

  CliqueIndexBuildStats stats;
  stats.clique_count = header.clique_count;
  stats.posting_total = header.posting_total;
  stats.file_bytes =
      kGsbciHeaderBytes +
      8 * (clique_offsets.size() + posting_offsets.size() + postings.size());
  return stats;
}

// --- reader -----------------------------------------------------------------

CliqueIndex CliqueIndex::open(const std::string& path) {
  CliqueIndex index;
  index.file_ = util::io::MappedFile(path, "gsbci");
  const char* base = index.file_.data();
  const std::size_t bytes = index.file_.size();

  if (bytes < kGsbciHeaderBytes) fail("file shorter than header");
  if (std::memcmp(base, kGsbciMagic, sizeof(kGsbciMagic)) != 0) {
    fail("bad magic (not a .gsbci file)");
  }
  GsbciHeader& header = index.header_;
  std::memcpy(&header.version, base + 8, 4);
  std::memcpy(&header.flags, base + 12, 4);
  std::memcpy(&header.n, base + 16, 8);
  std::memcpy(&header.clique_count, base + 24, 8);
  std::memcpy(&header.posting_total, base + 32, 8);
  std::memcpy(&header.source_checksum, base + 40, 8);
  std::memcpy(&header.checksum, base + 48, 8);
  if (header.version != storage::kGsbciVersion) {
    fail("unsupported version " + std::to_string(header.version));
  }
  // Ceiling the counts before the size arithmetic: crafted values near
  // 2^64/8 would wrap `expected` back onto the real file size and turn
  // the span construction below into out-of-bounds reads.
  constexpr std::uint64_t kCountCeiling = 1ull << 56;
  if (header.clique_count >= kCountCeiling || header.n >= kCountCeiling ||
      header.posting_total >= kCountCeiling) {
    fail("header counts out of range");
  }
  const std::uint64_t expected =
      kGsbciHeaderBytes +
      8 * (header.clique_count + header.n + 1 + header.posting_total);
  if (bytes != expected) {
    fail("file size " + std::to_string(bytes) +
         " does not match header counts (expected " +
         std::to_string(expected) + ")");
  }

  // Integrity pass, always on: the structural checks below catch shape
  // corruption, but only the hash catches an in-range flipped posting or
  // offset value (which would silently misanswer queries).  Same O(file)
  // order as the structural scans, paid once per open.
  storage::Fnv1a sum;
  sum.update(base + kGsbciHeaderBytes, bytes - kGsbciHeaderBytes);
  if (sum.digest() != header.checksum) fail("payload checksum mismatch");

  const auto* words = reinterpret_cast<const std::uint64_t*>(
      base + kGsbciHeaderBytes);
  index.clique_offsets_ = {words, header.clique_count};
  index.posting_offsets_ = {words + header.clique_count, header.n + 1};
  index.postings_ = {words + header.clique_count + header.n + 1,
                     header.posting_total};

  // Structural validation (O(clique_count + n + postings), like the .gsbg
  // open-time CSR scan): offsets monotone, postings in range and ascending
  // per vertex.
  for (std::uint64_t i = 0; i < header.clique_count; ++i) {
    const std::uint64_t lo =
        i == 0 ? storage::kGsbcHeaderBytes : index.clique_offsets_[i - 1] + 1;
    if (index.clique_offsets_[i] < lo) fail("clique offsets not ascending");
  }
  if (index.posting_offsets_[0] != 0 ||
      index.posting_offsets_[header.n] != header.posting_total) {
    fail("posting offsets do not span the postings array");
  }
  for (std::uint64_t v = 0; v < header.n; ++v) {
    if (index.posting_offsets_[v] > index.posting_offsets_[v + 1]) {
      fail("posting offsets not monotone");
    }
    const auto row = index.postings(static_cast<graph::VertexId>(v));
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i] >= header.clique_count ||
          (i > 0 && row[i] <= row[i - 1])) {
        fail("posting list malformed for vertex " + std::to_string(v));
      }
    }
  }
  return index;
}

}  // namespace gsb::service
