// Tests for the .gsbc clique-stream container: write -> read round trips,
// header totals, corruption rejection, the streaming analysis consumers
// (spectrum, participation, paraclique seeding), and CliqueSorter, the
// external sort into the Clique Enumerator's (size, lex) order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "analysis/clique_stats.h"
#include "analysis/paraclique.h"
#include "core/bron_kerbosch.h"
#include "core/parallel_bk.h"
#include "storage/clique_sort.h"
#include "storage/clique_stream.h"
#include "tests/test_helpers.h"
#include "util/memory_tracker.h"
#include "util/rng.h"

namespace gsb::storage {
namespace {

namespace fs = std::filesystem;
using core::Clique;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

/// Random strictly-ascending member sets over [0, order).
std::vector<Clique> random_clique_set(std::size_t order, std::size_t count,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Clique> cliques;
  cliques.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(1, 13));
    Clique clique;
    auto v = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(order / 4)));
    for (std::size_t j = 0; j < size && v < order; ++j) {
      clique.push_back(static_cast<graph::VertexId>(v));
      v += static_cast<std::uint64_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(order / 8 + 1)));
    }
    if (!clique.empty()) cliques.push_back(std::move(clique));
  }
  return cliques;
}

std::vector<Clique> read_all(GsbcReader& reader) {
  std::vector<Clique> out;
  Clique clique;
  while (reader.next(clique)) out.push_back(clique);
  return out;
}

TEST(GsbcStream, RoundTripsSeededCliqueSets) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const std::size_t order = 200 + seed * 100;
    const auto cliques = random_clique_set(order, 500, seed);
    const std::string path =
        temp_path("gsbc_roundtrip_" + std::to_string(seed) + ".gsbc");
    std::uint64_t member_total = 0;
    std::uint64_t max_size = 0;
    {
      GsbcWriter writer(path, order);
      for (const auto& clique : cliques) {
        writer.append(clique);
        member_total += clique.size();
        max_size = std::max<std::uint64_t>(max_size, clique.size());
      }
      const auto stats = writer.close();
      EXPECT_EQ(stats.clique_count, cliques.size());
      EXPECT_EQ(stats.member_total, member_total);
      EXPECT_EQ(stats.max_size, max_size);
      EXPECT_EQ(stats.file_bytes, fs::file_size(path));
    }
    GsbcReader::Options verify;
    verify.verify_checksum = true;
    auto reader = GsbcReader::open(path, verify);
    EXPECT_EQ(reader.order(), order);
    EXPECT_EQ(reader.clique_count(), cliques.size());
    EXPECT_EQ(reader.member_total(), member_total);
    EXPECT_EQ(reader.max_size(), max_size);
    EXPECT_EQ(read_all(reader), cliques);
    std::remove(path.c_str());
  }
}

TEST(GsbcStream, WriterCanonicalizesMemberOrder) {
  const std::string path = temp_path("gsbc_sort.gsbc");
  {
    GsbcWriter writer(path, 100);
    const std::vector<graph::VertexId> scrambled{42, 7, 99, 0};
    writer.append(scrambled);
    writer.close();
  }
  auto reader = GsbcReader::open(path);
  const auto cliques = read_all(reader);
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0], (Clique{0, 7, 42, 99}));
  std::remove(path.c_str());
}

TEST(GsbcStream, EmptyStreamIsValid) {
  const std::string path = temp_path("gsbc_empty.gsbc");
  {
    GsbcWriter writer(path, 10);
    writer.close();
  }
  GsbcReader::Options verify;
  verify.verify_checksum = true;
  auto reader = GsbcReader::open(path, verify);
  EXPECT_EQ(reader.clique_count(), 0u);
  Clique clique;
  EXPECT_FALSE(reader.next(clique));
  std::remove(path.c_str());
}

TEST(GsbcStream, WriterRejectsMalformedCliques) {
  const std::string path = temp_path("gsbc_reject.gsbc");
  GsbcWriter writer(path, 10);
  EXPECT_THROW(writer.append(std::vector<graph::VertexId>{}),
               std::runtime_error);
  EXPECT_THROW(writer.append(std::vector<graph::VertexId>{3, 3}),
               std::runtime_error);
  EXPECT_THROW(writer.append(std::vector<graph::VertexId>{10}),
               std::runtime_error);
  writer.append(std::vector<graph::VertexId>{0, 9});
  writer.close();
  std::remove(path.c_str());
}

TEST(GsbcStream, RejectsCorruption) {
  const std::string path = temp_path("gsbc_corrupt.gsbc");
  {
    GsbcWriter writer(path, 50);
    for (const auto& clique : random_clique_set(50, 40, 3)) {
      writer.append(clique);
    }
    writer.close();
  }
  const auto size = fs::file_size(path);

  // Payload bit flip: caught by the checksum pass.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(size - 3));
    const char byte = 0x7F;
    f.write(&byte, 1);
  }
  GsbcReader::Options verify;
  verify.verify_checksum = true;
  EXPECT_THROW(GsbcReader::open(path, verify), std::runtime_error);

  // Truncation: rejected at open by the payload-size bound — the header's
  // counts can no longer fit in the remaining bytes (this is what keeps
  // `gsb info` from reporting totals a cut-off file does not contain).
  fs::resize_file(path, size - 4);
  EXPECT_THROW(GsbcReader::open(path), std::runtime_error);

  // Bad magic.
  fs::resize_file(path, size);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.write("NOTGSBC1", 8);
  }
  EXPECT_THROW(GsbcReader::open(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(GsbcStream, OpenRejectsTruncatedAndPaddedFiles) {
  const std::string path = temp_path("gsbc_bounds.gsbc");
  {
    GsbcWriter writer(path, 100);
    writer.append(std::vector<graph::VertexId>{1, 2, 3});
    writer.append(std::vector<graph::VertexId>{4, 90});
    writer.close();
  }
  const auto size = fs::file_size(path);

  // Header intact, payload cut: open fails before any totals are reported.
  fs::resize_file(path, size - 1);
  EXPECT_THROW(GsbcReader::open(path), std::runtime_error);
  fs::resize_file(path, kGsbcHeaderBytes);  // header only, counts nonzero
  EXPECT_THROW(GsbcReader::open(path), std::runtime_error);
  // Shorter than the header itself.
  fs::resize_file(path, kGsbcHeaderBytes / 2);
  EXPECT_THROW(GsbcReader::open(path), std::runtime_error);
  std::remove(path.c_str());

  // A zero-clique stream must be exactly the header: trailing bytes mean
  // the counts are lying.
  const std::string empty_path = temp_path("gsbc_bounds_empty.gsbc");
  {
    GsbcWriter writer(empty_path, 10);
    writer.close();
  }
  {
    auto reader = GsbcReader::open(empty_path);  // valid when exact
    EXPECT_EQ(reader.clique_count(), 0u);
  }
  {
    std::ofstream f(empty_path, std::ios::binary | std::ios::app);
    f.write("junk", 4);
  }
  EXPECT_THROW(GsbcReader::open(empty_path), std::runtime_error);
  std::remove(empty_path.c_str());

  // A cut *inside* a multi-byte varint can stay within the open-time
  // bounds (they assume one byte per varint); the forward scan — which
  // `gsb info` runs before reporting any totals — must still fail loudly.
  const std::string inbounds_path = temp_path("gsbc_bounds_inbounds.gsbc");
  {
    GsbcWriter writer(inbounds_path, 100000);
    // Large ids -> multi-byte varints -> slack between the byte floor and
    // the real payload size.
    writer.append(std::vector<graph::VertexId>{70000, 80000, 90000});
    writer.append(std::vector<graph::VertexId>{65000, 99999});
    writer.close();
  }
  fs::resize_file(inbounds_path, fs::file_size(inbounds_path) - 2);
  auto inbounds = GsbcReader::open(inbounds_path);  // bounds are satisfied
  Clique clique;
  EXPECT_THROW(
      {
        while (inbounds.next(clique)) {
        }
      },
      std::runtime_error);
  std::remove(inbounds_path.c_str());

  // Padding past the 10-bytes-per-varint ceiling is likewise rejected.
  const std::string padded_path = temp_path("gsbc_bounds_padded.gsbc");
  {
    GsbcWriter writer(padded_path, 100);
    writer.append(std::vector<graph::VertexId>{5});
    writer.close();
  }
  {
    std::ofstream f(padded_path, std::ios::binary | std::ios::app);
    const std::vector<char> pad(64, '\0');
    f.write(pad.data(), static_cast<std::streamsize>(pad.size()));
  }
  EXPECT_THROW(GsbcReader::open(padded_path), std::runtime_error);
  std::remove(padded_path.c_str());
}

TEST(GsbcStream, RejectsDoctoredHeaderTotals) {
  // The checksum covers only the payload, so header aggregates must be
  // cross-checked against what the scan decodes.  Multi-byte varints give
  // the payload slack inside the open-time bounds, so a small edit to
  // member_total/max_size survives open — the drain must catch it.
  const std::string path = temp_path("gsbc_doctored.gsbc");
  auto write_stream = [&] {
    GsbcWriter writer(path, 100000);
    writer.append(std::vector<graph::VertexId>{70000, 80000, 90000});
    writer.append(std::vector<graph::VertexId>{65000, 99999});
    writer.close();
  };
  auto patch_u64 = [&](std::streamoff offset, std::uint64_t value) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(offset);
    f.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  auto drain_throws = [&] {
    auto reader = GsbcReader::open(path);
    Clique clique;
    EXPECT_THROW(
        {
          while (reader.next(clique)) {
          }
        },
        std::runtime_error);
  };

  write_stream();
  patch_u64(32, 6);  // member_total: 5 -> 6
  drain_throws();
  write_stream();
  patch_u64(40, 4);  // max_size: 3 -> 4
  drain_throws();
  std::remove(path.c_str());
}

/// Peak resident set (VmHWM) of this process in KiB, or -1.
long peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::stol(line.substr(6));
  }
  return -1;
}

// A forward scan hands the pages it has consumed back to the kernel, so
// draining a 16 MiB stream raises the scanning process's peak RSS by less
// than 1 MiB (a scan that kept them would add all 16).  It runs in a forked
// child, whose peak starts near its own size.  Optimized builds only: the
// sanitizer runtimes keep memory of their own.
TEST(GsbcStream, ForwardScanKeepsOneWindowResident) {
#if !defined(NDEBUG) || !defined(__linux__)
  GTEST_SKIP() << "peak RSS is checked in optimized Linux builds";
#endif
  const std::string path = temp_path("gsbc_bounded_scan.gsbc");
  constexpr std::uint64_t kRecords = 140'000;
  {
    // 64 members 16,000 apart: two-byte deltas, ~128 bytes a record.
    GsbcWriter writer(path, std::size_t{1} << 20);
    Clique clique(64);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      for (std::size_t j = 0; j < clique.size(); ++j) {
        clique[j] = static_cast<graph::VertexId>(i % 1000 + j * 16000);
      }
      writer.append(clique);
    }
    writer.close();
  }
  ASSERT_GE(fs::file_size(path), std::uintmax_t{16} << 20);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto reader = GsbcReader::open(path);
    Clique clique;
    clique.reserve(64);
    std::uint64_t records = 0;
    const long before = peak_rss_kib();
    while (reader.next(clique)) ++records;
    const long raised = peak_rss_kib() - before;
    std::fprintf(stderr, "scan of %llu records raised peak RSS by %ld KiB\n",
                 static_cast<unsigned long long>(records), raised);
    std::_Exit(records == kRecords && before > 0 && raised < 1024 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  std::remove(path.c_str());
}

// --- LEB128 varint codec -----------------------------------------------------

/// Reference encoder, written independently of append_leb128.
std::vector<unsigned char> reference_leb128(std::uint64_t value) {
  std::vector<unsigned char> out;
  do {
    unsigned char byte = value & 0x7Fu;
    value >>= 7;
    if (value != 0) byte |= 0x80u;
    out.push_back(byte);
  } while (value != 0);
  return out;
}

TEST(Leb128, BoundaryValuesRoundTrip) {
  std::vector<std::uint64_t> values{0, 1};
  for (unsigned bits = 7; bits < 64; bits += 7) {
    const std::uint64_t boundary = 1ull << bits;  // 2^7, 2^14, ..., 2^63
    values.push_back(boundary - 1);
    values.push_back(boundary);
    values.push_back(boundary + 1);
  }
  values.push_back((1ull << 63) - 1);
  values.push_back(1ull << 63);
  values.push_back(~0ull);
  for (const std::uint64_t value : values) {
    std::vector<unsigned char> encoded;
    append_leb128(encoded, value);
    EXPECT_EQ(encoded, reference_leb128(value)) << value;
    std::size_t pos = 0;
    EXPECT_EQ(decode_leb128(encoded, pos), value);
    EXPECT_EQ(pos, encoded.size()) << value;
  }
}

TEST(Leb128, RandomizedDifferentialRoundTrip) {
  util::Rng rng(4242);
  std::vector<unsigned char> stream;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    // Uniform over bit widths so every encoded length is exercised.
    const auto bits = static_cast<unsigned>(rng.uniform_int(0, 64));
    std::uint64_t value = rng();
    if (bits < 64) value &= (1ull << bits) - 1;
    values.push_back(value);
    const auto expected = reference_leb128(value);
    std::vector<unsigned char> encoded;
    append_leb128(encoded, value);
    ASSERT_EQ(encoded, expected) << value;
    stream.insert(stream.end(), encoded.begin(), encoded.end());
  }
  // Decode the whole concatenated stream back.
  std::size_t pos = 0;
  for (const std::uint64_t value : values) {
    ASSERT_EQ(decode_leb128(stream, pos), value);
  }
  EXPECT_EQ(pos, stream.size());
}

TEST(Leb128, RejectsTruncationOverflowAndOverlongEncodings) {
  // Every strict prefix of a multi-byte encoding is truncated.
  std::vector<unsigned char> encoded;
  append_leb128(encoded, ~0ull);  // 10 bytes
  ASSERT_EQ(encoded.size(), 10u);
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    const std::span<const unsigned char> prefix(encoded.data(), cut);
    std::size_t pos = 0;
    EXPECT_THROW(decode_leb128(prefix, pos), std::runtime_error) << cut;
  }

  // 2^64 (11 significant bytes) and a 10th byte with high bits overflow.
  const std::vector<unsigned char> too_big{0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                                           0x80, 0x80, 0x80, 0x80, 0x01};
  std::size_t pos = 0;
  EXPECT_THROW(decode_leb128(too_big, pos), std::runtime_error);
  const std::vector<unsigned char> tenth_byte_overflow{
      0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02};
  pos = 0;
  EXPECT_THROW(decode_leb128(tenth_byte_overflow, pos), std::runtime_error);

  // Over-long (non-canonical) encodings: a trailing 0x00 continuation.
  const std::vector<unsigned char> overlong_zero{0x80, 0x00};
  pos = 0;
  EXPECT_THROW(decode_leb128(overlong_zero, pos), std::runtime_error);
  const std::vector<unsigned char> overlong_value{0xFF, 0x80, 0x00};
  pos = 0;
  EXPECT_THROW(decode_leb128(overlong_value, pos), std::runtime_error);

  // The canonical single 0x00 is plain zero, not over-long.
  const std::vector<unsigned char> zero{0x00};
  pos = 0;
  EXPECT_EQ(decode_leb128(zero, pos), 0u);

  // The stream reader applies the same rejection: splice an over-long
  // varint into a record and the scan fails loudly.
  const std::string path = temp_path("gsbc_overlong.gsbc");
  {
    GsbcWriter writer(path, 300);
    writer.append(std::vector<graph::VertexId>{1, 200});
    writer.close();
  }
  {
    // Record bytes: size=2, member 1, delta 199 (2-byte varint 0xC7 0x01).
    // Rewrite the delta as over-long 0xC7 0x81 0x00 won't fit; instead
    // rewrite member "1" (1 byte) at its exact offset as 0x81 0x00 by
    // shifting is impossible in place — so target the 2-byte delta and
    // replace it with an over-long encoding of 71: 0xC7 0x00.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kGsbcHeaderBytes + 2));
    const unsigned char overlong[2] = {0xC7, 0x00};
    f.write(reinterpret_cast<const char*>(overlong), 2);
  }
  auto reader = GsbcReader::open(path);
  Clique clique;
  EXPECT_THROW(reader.next(clique), std::runtime_error);
  std::remove(path.c_str());
}

TEST(GsbcStream, StreamingConsumersMatchInMemoryAnalysis) {
  const graph::Graph g = test::random_graph(48, 0.4, 9);
  core::CliqueCollector collector;
  core::degeneracy_bk(g, collector.callback());
  const auto& cliques = collector.cliques();
  ASSERT_FALSE(cliques.empty());

  const std::string path = temp_path("gsbc_consumers.gsbc");
  {
    GsbcWriter writer(path, g.order());
    for (const auto& clique : cliques) writer.append(clique);
    writer.close();
  }

  // Spectrum computed off the stream == spectrum of the collected set.
  const auto expect_spectrum = analysis::clique_spectrum(cliques);
  auto reader = GsbcReader::open(path);
  const auto stream_spectrum = analysis::clique_spectrum(reader);
  EXPECT_EQ(stream_spectrum.size_histogram, expect_spectrum.size_histogram);
  EXPECT_EQ(stream_spectrum.total, expect_spectrum.total);
  EXPECT_EQ(stream_spectrum.max_size, expect_spectrum.max_size);
  EXPECT_EQ(stream_spectrum.min_size, expect_spectrum.min_size);
  EXPECT_DOUBLE_EQ(stream_spectrum.mean_size, expect_spectrum.mean_size);

  // Participation counts off the stream == in-memory counts.
  auto reader2 = GsbcReader::open(path);
  EXPECT_EQ(analysis::vertex_participation(g.order(), reader2),
            analysis::vertex_participation(g.order(), cliques));

  // Paraclique seeded from the stream == glomming the first largest clique.
  Clique best;
  for (const auto& clique : cliques) {
    if (clique.size() > best.size()) best = clique;
  }
  auto reader3 = GsbcReader::open(path);
  const auto from_stream =
      analysis::extract_paraclique_from_stream(g, reader3);
  const auto expected = analysis::grow_paraclique(g, best);
  EXPECT_EQ(from_stream.members, expected.members);
  EXPECT_EQ(from_stream.seed_size, expected.seed_size);
  std::remove(path.c_str());
}

TEST(GsbcStream, ParallelBkSpillsAndRoundTrips) {
  const graph::Graph g = test::random_graph(60, 0.35, 21);
  const std::string path = temp_path("gsbc_parallel_spill.gsbc");
  {
    GsbcWriter writer(path, g.order());
    core::ParallelBkOptions options;
    options.threads = 4;
    core::parallel_bk(
        g,
        [&](std::span<const graph::VertexId> clique) {
          writer.append(clique);
        },
        options);
    writer.close();
  }
  core::CliqueCollector collector;
  core::degeneracy_bk(g, collector.callback());
  auto expect = core::normalize(std::move(collector.cliques()));

  GsbcReader::Options verify;
  verify.verify_checksum = true;
  auto reader = GsbcReader::open(path, verify);
  EXPECT_EQ(core::normalize(read_all(reader)), expect);
  std::remove(path.c_str());
}

// --- CliqueSorter -----------------------------------------------------------

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Clique number \p i of a synthetic stream over 4,096 ids, rebuilt from
/// \p i alone into \p out, ascending: up to 9 members below 64 (so keys
/// share their packed prefix and ties read the arena), then three digits
/// of i from disjoint ranges that make every clique distinct.
void synthetic_clique(std::uint64_t i, Clique& out) {
  std::uint64_t h = mix(i);
  std::uint64_t members_below_64 = 0;
  for (std::uint64_t extras = h % 10; extras > 0; --extras) {
    h = mix(h);
    members_below_64 |= std::uint64_t{1} << (h % 64);
  }
  out.clear();
  for (graph::VertexId v = 0; v < 64; ++v) {
    if ((members_below_64 >> v & 1) != 0) out.push_back(v);
  }
  out.push_back(static_cast<graph::VertexId>(1000 + i % 1000));
  out.push_back(static_cast<graph::VertexId>(2000 + i / 1000 % 1000));
  out.push_back(static_cast<graph::VertexId>(3000 + i / 1000000));
}

/// Order-independent digest term of one ascending member set.
std::uint64_t clique_digest(std::span<const graph::VertexId> clique) {
  std::uint64_t h = clique.size();
  for (const auto v : clique) h = mix(h ^ v);
  return h;
}

/// Run files the sorter left behind under \p spill_base.
std::size_t leftover_runs(const std::string& spill_base) {
  const std::string stem = fs::path(spill_base).filename().string() + ".run";
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(fs::temp_directory_path())) {
    if (entry.path().filename().string().rfind(stem, 0) == 0) ++count;
  }
  return count;
}

// More than 64 MiB of cliques through the default budget: the sorter must
// spill at least three runs, merge them into a strictly increasing (size,
// lex) stream holding exactly the input set, keep its tracked bytes within
// the budget, and leave no run file behind.
TEST(CliqueSorter, SpillsPastDefaultBudgetAndMergesInEmissionOrder) {
  constexpr std::uint64_t kCliques = 4'000'000;
  const std::string base = temp_path("clique_sorter_default_budget");
  util::MemoryTracker tracker;
  CliqueSorter sorter(4096, base, CliqueSorter::kDefaultBudgetBytes,
                      &tracker);
  std::uint64_t input_bytes = 0;
  std::uint64_t input_digest = 0;
  Clique clique;
  for (std::uint64_t i = 0; i < kCliques; ++i) {
    synthetic_clique(i, clique);
    input_bytes += clique.size() * sizeof(graph::VertexId);
    input_digest += clique_digest(clique);
    std::reverse(clique.begin(), clique.end());  // the sorter sorts members
    sorter.add(clique);
  }
  ASSERT_GT(input_bytes, std::uint64_t{64} << 20);

  std::uint64_t count = 0;
  std::uint64_t digest = 0;
  bool increasing = true;
  Clique previous;
  const auto stats = sorter.finish([&](std::span<const graph::VertexId> c) {
    if (count > 0 && !emission_less(previous, c)) increasing = false;
    previous.assign(c.begin(), c.end());
    digest += clique_digest(c);
    ++count;
  });
  EXPECT_TRUE(increasing);
  EXPECT_EQ(count, kCliques);
  EXPECT_EQ(digest, input_digest);
  EXPECT_EQ(stats.cliques, kCliques);
  EXPECT_GE(stats.runs, 3u);
  EXPECT_LE(stats.peak_bytes, CliqueSorter::kDefaultBudgetBytes);
  EXPECT_LE(tracker.peak(), CliqueSorter::kDefaultBudgetBytes);
  EXPECT_EQ(tracker.current(), 0u);
  EXPECT_EQ(leftover_runs(base), 0u);
}

// A small budget (the constructor argument) spills past the fan-in limit,
// so runs are merged into one mid-stream; a one-byte budget holds every
// clique alone.  Both must still emit exactly the input in (size, lex)
// order.
TEST(CliqueSorter, SmallBudgetsMergeRunsAndMatchAFullSort) {
  for (const std::size_t budget : {std::size_t{64} << 10, std::size_t{1}}) {
    const std::uint64_t cliques = budget == 1 ? 300 : 100'000;
    const std::string base =
        temp_path("clique_sorter_budget_" + std::to_string(budget));
    util::MemoryTracker tracker;
    CliqueSorter sorter(4096, base, budget, &tracker);
    std::vector<Clique> expected;
    Clique clique;
    for (std::uint64_t i = 0; i < cliques; ++i) {
      synthetic_clique(i * 7919, clique);
      expected.push_back(clique);
      std::reverse(clique.begin(), clique.end());
      sorter.add(clique);
    }
    std::sort(expected.begin(), expected.end(),
              [](const Clique& a, const Clique& b) {
                return emission_less(a, b);
              });
    std::vector<Clique> got;
    const auto stats = sorter.finish([&](std::span<const graph::VertexId> c) {
      got.emplace_back(c.begin(), c.end());
    });
    EXPECT_EQ(got, expected) << "budget " << budget;
    EXPECT_GT(stats.runs, CliqueSorter::kMaxFanIn) << "budget " << budget;
    if (budget > 1) {
      EXPECT_LE(tracker.peak(), budget);
    }
    EXPECT_EQ(tracker.current(), 0u);
    EXPECT_EQ(leftover_runs(base), 0u);
  }
}

// Sizes 256 or more apart leave the radix sort's one-byte size digit:
// the buffer is sorted by comparison instead, to the same order.
TEST(CliqueSorter, WideSizeRangeSortsByComparison) {
  CliqueSorter sorter(1000, temp_path("clique_sorter_wide"));
  std::vector<Clique> expected;
  for (graph::VertexId first = 0; first < 3; ++first) {
    Clique big;
    for (graph::VertexId v = first; v < first + 400; ++v) big.push_back(v);
    Clique small{first, 999};
    expected.push_back(small);
    expected.push_back(big);
    std::reverse(big.begin(), big.end());
    sorter.add(big);
    sorter.add(small);
  }
  std::sort(expected.begin(), expected.end(),
            [](const Clique& a, const Clique& b) {
              return emission_less(a, b);
            });
  std::vector<Clique> got;
  sorter.finish([&](std::span<const graph::VertexId> c) {
    got.emplace_back(c.begin(), c.end());
  });
  EXPECT_EQ(got, expected);
}

TEST(CliqueSorter, RejectsMalformedCliquesAndReuse) {
  CliqueSorter sorter(10, temp_path("clique_sorter_reject"));
  EXPECT_THROW(sorter.add(std::vector<graph::VertexId>{}), std::runtime_error);
  EXPECT_THROW(sorter.add(std::vector<graph::VertexId>{3, 3}),
               std::runtime_error);
  EXPECT_THROW(sorter.add(std::vector<graph::VertexId>{10}),
               std::runtime_error);
  sorter.add(std::vector<graph::VertexId>{9, 0});
  sorter.add(std::vector<graph::VertexId>{4});
  std::vector<Clique> got;
  sorter.finish([&](std::span<const graph::VertexId> c) {
    got.emplace_back(c.begin(), c.end());
  });
  EXPECT_EQ(got, (std::vector<Clique>{{4}, {0, 9}}));
  EXPECT_THROW(sorter.add(std::vector<graph::VertexId>{1}),
               std::runtime_error);
  EXPECT_THROW(sorter.finish([](std::span<const graph::VertexId>) {}),
               std::runtime_error);
}

}  // namespace
}  // namespace gsb::storage
