// Snapshot round-trip and corruption tests (DESIGN.md §5.9, docs/FORMATS.md).
//
// The contract under test: load(save(S)) is bit-for-bit S — identical query
// results, identical tracked/peak space, and identical behavior when
// ingestion CONTINUES past the restore point (cutoff, heap order, arena free
// lists, and table geometry all survive). Fuzzed over random streams, with
// explicit budgets that cross saturation mid-stream, for all four sketch
// types and the ladder (shared-key and mixed-seed). Corrupt, truncated, and
// version-patched images must fail loudly — an error through the reader,
// never a crash or a silently wrong sketch.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/sketch_ladder.hpp"
#include "core/subsample_sketch.hpp"
#include "core/weighted_sketch.hpp"
#include "serve/sketch_server.hpp"
#include "sketch/l0_kcover.hpp"
#include "sketch/substrate/snapshot.hpp"
#include "stream/arrival_order.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace covstream {
namespace {

template <typename T>
std::vector<std::uint8_t> to_bytes(const T& object) {
  SnapshotWriter writer(T::kSnapshotType);
  object.save(writer);
  return writer.finish();
}

template <typename T>
std::optional<T> from_bytes(std::vector<std::uint8_t> bytes,
                            std::string* error = nullptr) {
  SnapshotReader reader(std::move(bytes));
  std::optional<T> loaded;
  if (reader.ok() && reader.type() == T::kSnapshotType) {
    loaded = T::load_snapshot(reader);
  } else if (reader.ok()) {
    reader.fail("snapshot holds a different object type");
  }
  if (loaded && !reader.at_end()) loaded.reset();
  if (!reader.ok()) loaded.reset();
  if (error != nullptr) *error = reader.error();
  return loaded;
}

SketchParams small_params(SetId n, std::uint64_t seed, std::size_t budget,
                          bool dedupe = true) {
  SketchParams params;
  params.num_sets = n;
  params.k = 4;
  params.eps = 0.3;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = budget;
  params.dedupe_edges = dedupe;
  params.hash_seed = seed;
  return params;
}

std::vector<Edge> fuzz_edges(Rng& rng, SetId n, std::size_t count) {
  std::vector<Edge> edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(Edge{static_cast<SetId>(rng.next_below(std::uint64_t{n})),
                         rng.next_below(std::uint64_t{1} << 16)});
  }
  return edges;
}

/// The strongest equality there is: serialize both and compare images.
/// Covers every queryable field plus the space counters at once.
template <typename T>
void expect_image_equal(const T& a, const T& b, const char* what) {
  ASSERT_EQ(to_bytes(a), to_bytes(b)) << what;
}

// ------------------------------------------------------------ round trips ----

TEST(Snapshot, SubsampleRoundTripFuzz) {
  Rng rng(0x5AFE5AFEULL);
  for (int trial = 0; trial < 20; ++trial) {
    const SetId n = 5 + static_cast<SetId>(rng.next_below(std::uint64_t{40}));
    // Budgets small enough that most trials saturate (the interesting case:
    // finite cutoff, heap built, arena churn) but some stay unsaturated.
    const std::size_t budget = 8 + rng.next_below(std::uint64_t{400});
    const SketchParams params =
        small_params(n, rng.next(), budget, trial % 2 == 0);
    const std::vector<Edge> edges =
        fuzz_edges(rng, n, 50 + rng.next_below(std::uint64_t{3000}));
    const std::size_t split = edges.size() / 2;

    SubsampleSketch original(params);
    original.update_chunk(std::span<const Edge>(edges.data(), split));

    std::optional<SubsampleSketch> loaded =
        from_bytes<SubsampleSketch>(to_bytes(original));
    ASSERT_TRUE(loaded) << "trial " << trial;

    // Identical queries and space at the restore point...
    ASSERT_EQ(loaded->retained_elements(), original.retained_elements());
    ASSERT_EQ(loaded->stored_edges(), original.stored_edges());
    ASSERT_EQ(loaded->p_star(), original.p_star());
    ASSERT_EQ(loaded->space_words(), original.space_words());
    ASSERT_EQ(loaded->peak_space_words(), original.peak_space_words());
    for (int q = 0; q < 8; ++q) {
      std::vector<SetId> family;
      for (SetId s = 0; s < n; ++s) {
        if (rng.next_bool(0.3)) family.push_back(s);
      }
      ASSERT_EQ(loaded->estimate_coverage(family),
                original.estimate_coverage(family))
          << "trial " << trial;
    }
    expect_image_equal(original, *loaded, "re-serialized image");

    // ...and identical behavior when ingestion continues past it (this is
    // what proves cutoff/heap/free lists were restored, not just the view).
    original.update_chunk(std::span<const Edge>(edges.data() + split,
                                                edges.size() - split));
    loaded->update_chunk(std::span<const Edge>(edges.data() + split,
                                               edges.size() - split));
    expect_image_equal(original, *loaded, "image after continued ingest");
  }
}

TEST(Snapshot, SubsampleMidSaturationRoundTrip) {
  // Snapshot taken exactly in the regime the paper lives in: budget blown,
  // evictions ongoing, cutoff finite.
  Rng rng(0x0DDBA11ULL);
  const SketchParams params = small_params(20, 99, /*budget=*/32);
  const std::vector<Edge> edges = fuzz_edges(rng, 20, 4000);
  SubsampleSketch sketch(params);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    sketch.update(edges[i]);
    if (sketch.saturated() && i >= edges.size() / 3) break;
  }
  ASSERT_TRUE(sketch.saturated());
  std::optional<SubsampleSketch> loaded =
      from_bytes<SubsampleSketch>(to_bytes(sketch));
  ASSERT_TRUE(loaded);
  expect_image_equal(sketch, *loaded, "mid-saturation image");
  for (const Edge& edge : edges) {  // keep churning evictions on both
    sketch.update(edge);
    loaded->update(edge);
  }
  expect_image_equal(sketch, *loaded, "post-churn image");
}

TEST(Snapshot, WeightedRoundTripFuzz) {
  Rng rng(0x3E1674EDULL);
  for (int trial = 0; trial < 12; ++trial) {
    const SetId n = 5 + static_cast<SetId>(rng.next_below(std::uint64_t{30}));
    const SketchParams params =
        small_params(n, rng.next(), 8 + rng.next_below(std::uint64_t{300}));
    std::vector<WeightedEdge> edges;
    for (std::size_t i = 0; i < 50 + rng.next_below(std::uint64_t{2000}); ++i) {
      const ElemId elem = rng.next_below(std::uint64_t{1} << 14);
      // Weight must be a function of the element across arrivals.
      edges.push_back(WeightedEdge{
          static_cast<SetId>(rng.next_below(std::uint64_t{n})), elem,
          0.25 + static_cast<double>(elem % 16)});
    }
    const std::size_t split = edges.size() / 2;
    WeightedSubsampleSketch original(params);
    original.update_chunk(std::span<const WeightedEdge>(edges.data(), split));

    std::optional<WeightedSubsampleSketch> loaded =
        from_bytes<WeightedSubsampleSketch>(to_bytes(original));
    ASSERT_TRUE(loaded) << "trial " << trial;
    ASSERT_EQ(loaded->tau_star(), original.tau_star());
    ASSERT_EQ(loaded->space_words(), original.space_words());
    for (int q = 0; q < 6; ++q) {
      std::vector<SetId> family;
      for (SetId s = 0; s < n; ++s) {
        if (rng.next_bool(0.3)) family.push_back(s);
      }
      ASSERT_EQ(loaded->estimate_weighted_coverage(family),
                original.estimate_weighted_coverage(family));
    }
    original.update_chunk(std::span<const WeightedEdge>(edges.data() + split,
                                                        edges.size() - split));
    loaded->update_chunk(std::span<const WeightedEdge>(edges.data() + split,
                                                       edges.size() - split));
    expect_image_equal(original, *loaded, "weighted continued-ingest image");
  }
}

TEST(Snapshot, LadderSharedAndMixedSeedRoundTrip) {
  Rng rng(0x1ADDE4ULL);
  for (const bool shared : {true, false}) {
    const SetId n = 24;
    std::vector<SketchParams> rung_params;
    for (std::size_t r = 0; r < 4; ++r) {
      SketchParams params = small_params(
          n, shared ? 7 : 7 + r, 16 << r);  // mixed budgets; maybe mixed seeds
      params.k = static_cast<std::uint32_t>(1 + r);
      rung_params.push_back(params);
    }
    SketchLadder original(rung_params);
    ASSERT_EQ(original.shares_keys(), shared);
    const std::vector<Edge> edges = fuzz_edges(rng, n, 5000);
    const std::size_t split = edges.size() / 2;
    original.update_chunk(std::span<const Edge>(edges.data(), split));

    std::optional<SketchLadder> loaded =
        from_bytes<SketchLadder>(to_bytes(original));
    ASSERT_TRUE(loaded);
    ASSERT_EQ(loaded->size(), original.size());
    ASSERT_EQ(loaded->shares_keys(), shared);  // recomputed from params
    original.update_chunk(std::span<const Edge>(edges.data() + split,
                                                edges.size() - split));
    loaded->update_chunk(std::span<const Edge>(edges.data() + split,
                                               edges.size() - split));
    expect_image_equal(original, *loaded, "ladder continued-ingest image");
  }
}

TEST(Snapshot, L0KCoverRoundTrip) {
  Rng rng(0x10C0FE4ULL);
  const SetId n = 16;
  L0KCover original(n, /*sketch_capacity=*/32, /*seed=*/11);
  for (const Edge& edge : fuzz_edges(rng, n, 6000)) original.update(edge);

  std::optional<L0KCover> loaded = from_bytes<L0KCover>(to_bytes(original));
  ASSERT_TRUE(loaded);
  ASSERT_EQ(loaded->space_words(), original.space_words());
  for (int q = 0; q < 8; ++q) {
    std::vector<SetId> family;
    for (SetId s = 0; s < n; ++s) {
      if (rng.next_bool(0.4)) family.push_back(s);
    }
    ASSERT_EQ(loaded->estimate_coverage(family),
              original.estimate_coverage(family));
  }
  expect_image_equal(original, *loaded, "l0 bank image");
}

TEST(Snapshot, IngestCheckpointRoundTrip) {
  Rng rng(0xC4EC4ULL);
  SubsampleSketch sketch(small_params(12, 5, 64));
  const std::vector<Edge> edges = fuzz_edges(rng, 12, 800);
  sketch.update_chunk(edges);
  const IngestCheckpoint original{
      StreamEngine::ResumePoint{12345, 800, 800}, sketch};
  std::optional<IngestCheckpoint> loaded =
      from_bytes<IngestCheckpoint>(to_bytes(original));
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->resume.stream_position, 12345u);
  EXPECT_EQ(loaded->resume.edges_read, 800u);
  EXPECT_EQ(loaded->resume.edges_kept, 800u);
  expect_image_equal(original.sketch, loaded->sketch, "checkpoint sketch");
}

TEST(Snapshot, FileRoundTrip) {
  Rng rng(0xF11EULL);
  SubsampleSketch sketch(small_params(10, 3, 48));
  sketch.update_chunk(fuzz_edges(rng, 10, 900));
  const std::string path = testing::TempDir() + "covstream_snapshot_test.snap";
  std::string error;
  ASSERT_TRUE(save_snapshot(sketch, path, &error)) << error;
  std::optional<SubsampleSketch> loaded =
      load_snapshot<SubsampleSketch>(path, &error);
  ASSERT_TRUE(loaded) << error;
  expect_image_equal(sketch, *loaded, "file round trip");
  std::remove(path.c_str());
}

// --------------------------------------------------------- loud failures ----

std::vector<std::uint8_t> sample_image() {
  Rng rng(0xBADF00DULL);
  SubsampleSketch sketch(small_params(14, 21, 40));
  sketch.update_chunk(fuzz_edges(rng, 14, 1200));
  return to_bytes(sketch);
}

TEST(Snapshot, CorruptBytesFailLoudly) {
  const std::vector<std::uint8_t> image = sample_image();
  // Every single-bit corruption anywhere in the image — header, payload or
  // checksum — must be rejected (the frame checks or the checksum catch it),
  // and never crash.
  for (std::size_t at = 0; at < image.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> corrupt = image;
      corrupt[at] ^= static_cast<std::uint8_t>(1u << bit);
      std::string error;
      ASSERT_FALSE(from_bytes<SubsampleSketch>(std::move(corrupt), &error))
          << "offset " << at << " bit " << bit;
      ASSERT_FALSE(error.empty()) << "offset " << at << " bit " << bit;
    }
  }
}

TEST(Snapshot, ChecksumCatchesTopBitPairInOneLane) {
  // Bit 63 flipped in two words 32 bytes apart: both land in the same lane.
  // A lane of plain word-wise FNV ((h ^ w) * P) misses this pair, because
  // (x ^ 2^63) * P == x * P ^ 2^63 carries the first flip unchanged into the
  // second, which cancels it. The rotate between the multiplies must not.
  const std::vector<std::uint8_t> image = sample_image();
  ASSERT_GT(image.size(), 160u);
  std::vector<std::uint8_t> corrupt = image;
  corrupt[64 + 7] ^= 0x80;  // bit 63 of the little-endian word at 64
  corrupt[96 + 7] ^= 0x80;  // and of the word at 96
  const std::size_t body = image.size() - 8;
  EXPECT_NE(snapshot_checksum(std::span<const std::uint8_t>(image.data(), body)),
            snapshot_checksum(
                std::span<const std::uint8_t>(corrupt.data(), body)));
  std::string error;
  EXPECT_FALSE(from_bytes<SubsampleSketch>(std::move(corrupt), &error));
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
}

TEST(Snapshot, ChecksumDefinitionIsPinned) {
  // Format version 2 defines the trailer as XXH64 with seed 0. Published
  // XXH64 test vectors anchor the definition to the reference algorithm...
  const auto of_text = [](const char* text) {
    return snapshot_checksum(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text), std::strlen(text)));
  };
  EXPECT_EQ(of_text(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(of_text("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(of_text("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(of_text("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
  // ...and these pin every path: the short-input start (< 32 bytes), the
  // four lanes, and the word, half-word and byte tails.
  std::vector<std::uint8_t> bytes(4099);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const std::pair<std::size_t, std::uint64_t> pinned[] = {
      {0, 0xEF46DB3751D8E999ULL},    {1, 0xA96C7F0CE858BBB7ULL},
      {7, 0xAFBEFC3D6C6F9A8EULL},    {31, 0x4A74F3A1A39AD4A1ULL},
      {32, 0x8D57D6A4671CC43DULL},   {33, 0x62C9FD21ED857664ULL},
      {4099, 0x98531E44AA4F969DULL},
  };
  for (const auto& [len, want] : pinned) {
    EXPECT_EQ(snapshot_checksum(std::span<const std::uint8_t>(bytes.data(), len)),
              want)
        << "length " << len;
  }
}

TEST(Snapshot, TruncationFailsLoudly) {
  const std::vector<std::uint8_t> image = sample_image();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{31}, std::size_t{100},
        image.size() / 2, image.size() - 1}) {
    std::vector<std::uint8_t> truncated(image.begin(), image.begin() + keep);
    std::string error;
    EXPECT_FALSE(from_bytes<SubsampleSketch>(std::move(truncated), &error))
        << "kept " << keep;
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  }
}

TEST(Snapshot, VersionMismatchNamesTheVersion) {
  // A newer writer's file, and a version-1 file (the FNV-1a trailer era):
  // both are refused at the version check, before the checksum is looked at.
  for (const std::uint32_t version : {kSnapshotVersion + 1, 1u}) {
    std::vector<std::uint8_t> image = sample_image();
    std::memcpy(image.data() + 8, &version, sizeof version);
    std::string error;
    EXPECT_FALSE(from_bytes<SubsampleSketch>(std::move(image), &error));
    EXPECT_NE(error.find("unsupported snapshot version " +
                         std::to_string(version) + " "),
              std::string::npos)
        << error;
  }
}

TEST(Snapshot, WrongObjectTypeFails) {
  std::string error;
  EXPECT_FALSE(from_bytes<WeightedSubsampleSketch>(sample_image(), &error));
  EXPECT_NE(error.find("different object type"), std::string::npos) << error;
}

TEST(Snapshot, MissingFileFails) {
  std::string error;
  EXPECT_FALSE(load_snapshot<SubsampleSketch>(
      testing::TempDir() + "does_not_exist.snap", &error));
  EXPECT_FALSE(error.empty());
}

TEST(Snapshot, ReadErrorNamesItsErrno) {
  // A directory opens for reading but every read(2) fails with EISDIR: the
  // loader must report that error, not mistake it for end of file and call
  // the image truncated.
  const SnapshotReader reader = SnapshotReader::from_file(testing::TempDir());
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("cannot read snapshot"), std::string::npos)
      << reader.error();
  EXPECT_NE(reader.error().find(std::strerror(EISDIR)), std::string::npos)
      << reader.error();
}

TEST(Snapshot, ForgedPayloadWithValidChecksumFails) {
  // Re-frame a tampered payload with a RECOMPUTED checksum: the structural
  // validators (not the checksum) must catch it. Corrupt the stored-edges
  // count inside the core section.
  Rng rng(0xF02A6EDULL);
  SubsampleSketch sketch(small_params(14, 21, 40));
  sketch.update_chunk(fuzz_edges(rng, 14, 1200));
  std::vector<std::uint8_t> image = to_bytes(sketch);
  // Locate the 'CORE' section tag, then skip tag+len+cap+budget+inf+cutoff+
  // heap_built to the stored_edges field and bump it.
  const std::uint32_t core_tag = snapshot_tag('C', 'O', 'R', 'E');
  std::size_t core_at = 0;
  for (std::size_t i = 32; i + 4 <= image.size(); ++i) {
    std::uint32_t tag;
    std::memcpy(&tag, image.data() + i, sizeof tag);
    if (tag == core_tag) {
      core_at = i;
      break;
    }
  }
  ASSERT_NE(core_at, 0u);
  const std::size_t stored_edges_at = core_at + 4 + 8 + 8 + 8 + 8 + 8 + 1;
  image[stored_edges_at] ^= 0x1;
  const std::uint64_t checksum = snapshot_checksum(
      std::span<const std::uint8_t>(image.data(), image.size() - 8));
  std::memcpy(image.data() + image.size() - 8, &checksum, sizeof checksum);
  std::string error;
  EXPECT_FALSE(from_bytes<SubsampleSketch>(std::move(image), &error));
  EXPECT_NE(error.find("minhash core"), std::string::npos) << error;
}

}  // namespace
}  // namespace covstream
