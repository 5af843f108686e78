// Unit tests for the resilience layer: cancellation tokens,
// checksummed append-only checkpoints (including every corruption mode
// — a damaged file must be detected and reported, never half-loaded —
// resume-then-append, and the rollback of a short append), and the
// deterministic chaos hook.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "resil/chaos.h"
#include "resil/resil.h"
#include "scoped_env.h"

namespace rascal::resil {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "rascal_resil_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
}

// --- CancellationToken ---------------------------------------------------

TEST(CancellationToken, StartsUncancelled) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  EXPECT_EQ(token.signal_number(), 0);
  EXPECT_EQ(token.describe(), "not cancelled");
}

TEST(CancellationToken, SignalRequestRecordsSignalNumber) {
  CancellationToken token;
  token.request_cancel_signal(SIGTERM);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kSignal);
  EXPECT_EQ(token.signal_number(), SIGTERM);
  EXPECT_EQ(token.describe(), "signal SIGTERM");

  CancellationToken other;
  other.request_cancel_signal(SIGINT);
  EXPECT_EQ(other.describe(), "signal SIGINT");
}

TEST(CancellationToken, NonPositiveDeadlineFiresOnNextPoll) {
  CancellationToken token;
  token.set_deadline_after(0.0);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_EQ(token.describe(), "deadline exceeded");
  // First cause wins: a later signal must not overwrite the reason.
  token.request_cancel_signal(SIGTERM);
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);

  CancellationToken negative;
  negative.set_deadline_after(-5.0);
  EXPECT_TRUE(negative.cancelled());
  EXPECT_EQ(negative.reason(), CancelReason::kDeadline);
}

TEST(CancellationToken, FarDeadlineDoesNotFire) {
  CancellationToken token;
  token.set_deadline_after(3600.0);
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
}

// --- DigestBuilder and bit round-tripping --------------------------------

TEST(DigestBuilder, IsOrderAndContentSensitive) {
  const auto digest = [](auto fill) {
    DigestBuilder b;
    fill(b);
    return b.value();
  };
  const std::uint64_t ab =
      digest([](DigestBuilder& b) { b.add_u64(1).add_u64(2); });
  const std::uint64_t ba =
      digest([](DigestBuilder& b) { b.add_u64(2).add_u64(1); });
  EXPECT_NE(ab, ba);
  EXPECT_EQ(ab, digest([](DigestBuilder& b) { b.add_u64(1).add_u64(2); }));
  EXPECT_NE(digest([](DigestBuilder& b) { b.add_str("campaign"); }),
            digest([](DigestBuilder& b) { b.add_str("uncertainty"); }));
  EXPECT_NE(digest([](DigestBuilder& b) { b.add_f64(0.1); }),
            digest([](DigestBuilder& b) { b.add_f64(0.2); }));
}

TEST(CheckpointWords, DoubleRoundTripIsExact) {
  const double values[] = {0.0, -0.0, 1.0 / 3.0, 5.25, -123.456e-78,
                           5e-324 /* denormal */};
  for (const double v : values) {
    EXPECT_EQ(bits_f64(f64_bits(v)), v);
  }
  // -0.0 and 0.0 compare equal but have different bit patterns; the
  // checkpoint must preserve the distinction.
  EXPECT_NE(f64_bits(0.0), f64_bits(-0.0));
}

// --- Checkpointer round trip ---------------------------------------------

CheckpointEntry ok_entry(std::uint64_t index,
                         std::vector<std::uint64_t> words) {
  CheckpointEntry e;
  e.index = index;
  e.status = EntryStatus::kOk;
  e.words = std::move(words);
  return e;
}

CheckpointEntry failed_entry(std::uint64_t index, std::string note) {
  CheckpointEntry e;
  e.index = index;
  e.status = EntryStatus::kFailed;
  e.note = std::move(note);
  return e;
}

TEST(Checkpointer, RoundTripsEntriesBitExactly) {
  const std::string path = temp_path("roundtrip.json");
  std::remove(path.c_str());
  {
    Checkpointer writer(path, "unit", 0xDEADBEEFULL, 10);
    writer.record(ok_entry(0, {f64_bits(1.0 / 3.0), 42}));
    writer.record(ok_entry(7, {f64_bits(-0.0)}));
    writer.record(failed_entry(
        3, "solver \"diverged\"\n\tat iteration 5 \x01"));
    writer.flush();
  }
  Checkpointer reader(path, "unit", 0xDEADBEEFULL, 10);
  EXPECT_EQ(reader.resume_from_disk(), 3u);
  const std::vector<CheckpointEntry> entries = reader.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].index, 0u);
  EXPECT_EQ(entries[0].status, EntryStatus::kOk);
  ASSERT_EQ(entries[0].words.size(), 2u);
  EXPECT_EQ(bits_f64(entries[0].words[0]), 1.0 / 3.0);
  EXPECT_EQ(entries[0].words[1], 42u);
  EXPECT_EQ(entries[1].index, 3u);
  EXPECT_EQ(entries[1].status, EntryStatus::kFailed);
  EXPECT_EQ(entries[1].note, "solver \"diverged\"\n\tat iteration 5 \x01");
  EXPECT_EQ(entries[2].index, 7u);
  EXPECT_EQ(f64_bits(bits_f64(entries[2].words[0])), f64_bits(-0.0));
  std::remove(path.c_str());
}

TEST(Checkpointer, FlushCadenceWritesWithoutExplicitFlush) {
  const std::string path = temp_path("cadence.json");
  std::remove(path.c_str());
  const ScopedEnv cadence("RASCAL_CHECKPOINT_EVERY", "2");
  Checkpointer writer(path, "unit", 1, 100);
  writer.record(ok_entry(0, {1}));
  EXPECT_FALSE(checkpoint_file_exists(path));  // 1 < cadence
  writer.record(ok_entry(1, {2}));
  EXPECT_TRUE(checkpoint_file_exists(path));  // cadence hit
  const CheckpointFile file = load_checkpoint_file(path);
  EXPECT_EQ(file.kind, "unit");
  EXPECT_EQ(file.entries.size(), 2u);
  std::remove(path.c_str());
}

TEST(Checkpointer, AtomicWriteLeavesNoTempFile) {
  const std::string path = temp_path("atomic.json");
  std::remove(path.c_str());
  Checkpointer writer(path, "unit", 1, 4);
  writer.record(ok_entry(0, {}));
  writer.flush();
  EXPECT_TRUE(checkpoint_file_exists(path));
  EXPECT_FALSE(checkpoint_file_exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Checkpointer, WriteFailureAbortsByDefault) {
  const std::string path = temp_path("abort_policy.json");
  std::remove(path.c_str());
  chaos::configure("checkpoint-write-fail@0");
  Checkpointer writer(path, "unit", 1, 4);
  writer.record(ok_entry(0, {1}));
  EXPECT_THROW(writer.flush(), CheckpointError);
  chaos::configure("");
  std::remove(path.c_str());
}

TEST(Checkpointer, ToleratedWriteFailureRetainsEntriesForRetry) {
  const std::string path = temp_path("tolerate_policy.json");
  std::remove(path.c_str());
  Checkpointer writer(path, "unit", 1, 4);
  writer.set_write_failure_policy(
      Checkpointer::WriteFailurePolicy::kTolerate);
  writer.record(ok_entry(0, {f64_bits(0.25)}));
  writer.record(ok_entry(1, {f64_bits(0.75)}));

  chaos::configure("checkpoint-write-fail@0");
  writer.flush();  // simulated ENOSPC: counted, not thrown
  chaos::configure("");
  EXPECT_EQ(writer.write_failures(), 1u);
  EXPECT_FALSE(checkpoint_file_exists(path));

  // The entries survived in memory: the next flush lands everything.
  writer.flush();
  EXPECT_EQ(writer.write_failures(), 1u);
  ASSERT_TRUE(checkpoint_file_exists(path));
  const CheckpointFile file = load_checkpoint_file(path);
  EXPECT_EQ(file.entries.size(), 2u);
  std::remove(path.c_str());
}

TEST(Checkpointer, MissingFileResumesEmpty) {
  const std::string path = temp_path("missing.json");
  std::remove(path.c_str());
  Checkpointer reader(path, "unit", 1, 4);
  EXPECT_EQ(reader.resume_from_disk(), 0u);
  EXPECT_EQ(reader.size(), 0u);
}

// --- Corruption: detected, reported, never half-loaded -------------------

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per case: ctest runs the cases as parallel processes
    // that share TempDir(), and each TearDown deletes its own file.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = temp_path(std::string("corrupt_") + info->name() + ".json");
    std::remove(path_.c_str());
    Checkpointer writer(path_, "unit", 77, 8);
    for (std::uint64_t i = 0; i < 5; ++i) {
      writer.record(ok_entry(i, {f64_bits(static_cast<double>(i) * 0.1)}));
    }
    writer.flush();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // A reader over a damaged file must throw and keep zero entries.
  void expect_rejected() {
    Checkpointer reader(path_, "unit", 77, 8);
    EXPECT_THROW(reader.resume_from_disk(), CheckpointError);
    EXPECT_EQ(reader.size(), 0u) << "corrupt file must never half-load";
  }

  std::string path_;
};

TEST_F(CheckpointCorruption, TruncatedFileIsRejected) {
  const std::string body = slurp(path_);
  ASSERT_GT(body.size(), 20u);
  spit(path_, body.substr(0, body.size() / 2));
  expect_rejected();
}

TEST_F(CheckpointCorruption, FlippedByteIsRejected) {
  std::string body = slurp(path_);
  // Flip a digit inside an entry payload (not the checksum field
  // itself, so this exercises checksum verification).
  const std::size_t pos = body.find("\"w\":[");
  ASSERT_NE(pos, std::string::npos);
  body[pos + 5] = (body[pos + 5] == '1') ? '2' : '1';
  spit(path_, body);
  expect_rejected();
}

TEST_F(CheckpointCorruption, TrailingGarbageIsRejected) {
  spit(path_, slurp(path_) + "garbage");
  expect_rejected();
}

TEST_F(CheckpointCorruption, NonJsonFileIsRejected) {
  spit(path_, "this is not a checkpoint\n");
  expect_rejected();
}

TEST_F(CheckpointCorruption, EmptyFileIsRejected) {
  spit(path_, "");
  expect_rejected();
}

TEST_F(CheckpointCorruption, KindMismatchIsRejected) {
  Checkpointer reader(path_, "other-kind", 77, 8);
  EXPECT_THROW(reader.resume_from_disk(), CheckpointError);
  EXPECT_EQ(reader.size(), 0u);
}

TEST_F(CheckpointCorruption, DigestMismatchIsRejected) {
  Checkpointer reader(path_, "unit", 78, 8);
  EXPECT_THROW(reader.resume_from_disk(), CheckpointError);
  EXPECT_EQ(reader.size(), 0u);
}

TEST_F(CheckpointCorruption, TotalMismatchIsRejected) {
  Checkpointer reader(path_, "unit", 77, 9);
  EXPECT_THROW(reader.resume_from_disk(), CheckpointError);
  EXPECT_EQ(reader.size(), 0u);
}

TEST_F(CheckpointCorruption, ErrorMessageNamesTheFile) {
  spit(path_, slurp(path_).substr(0, 30));
  try {
    (void)load_checkpoint_file(path_);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(path_), std::string::npos)
        << "diagnostic should name the file: " << e.what();
  }
}

// --- The append-only log: resume, chain, salvage, rollback ---------------

// An independent FNV-1a, so hand-built files test the format, not the
// writer.
std::uint64_t test_fnv1a(const std::string& text,
                         std::uint64_t hash = 14695981039346656037ULL) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// One line of the log: `fields` without the checksum field and the
// closing brace.  Returns the line; `chain` becomes its checksum.
std::string chained_line(const std::string& fields, std::uint64_t& chain) {
  chain = test_fnv1a(fields + "}", chain);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(chain));
  return fields + ",\"checksum\":\"" + hex + "\"}\n";
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t end; (end = text.find('\n', start)) != std::string::npos;
       start = end + 1) {
    lines.push_back(text.substr(start, end - start + 1));
  }
  return lines;
}

// Three segments: {0,1}, {2,3}, {4}.
std::string write_three_segments(const std::string& path) {
  std::remove(path.c_str());
  const ScopedEnv cadence("RASCAL_CHECKPOINT_EVERY", "2");
  Checkpointer writer(path, "unit", 77, 8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    writer.record(ok_entry(i, {f64_bits(static_cast<double>(i) * 0.1)}));
  }
  writer.flush();
  return slurp(path);
}

std::string rejection_message(const std::string& path) {
  Checkpointer reader(path, "unit", 77, 8);
  try {
    reader.resume_from_disk();
  } catch (const CheckpointError& e) {
    EXPECT_EQ(reader.size(), 0u) << "corrupt file must never half-load";
    return e.what();
  }
  ADD_FAILURE() << "expected CheckpointError for " << path;
  return "";
}

TEST(CheckpointLog, ResumeThenAppendExtendsTheFileInPlace) {
  const std::string path = temp_path("log_resume_append.json");
  std::remove(path.c_str());
  {
    Checkpointer writer(path, "unit", 77, 8);
    for (std::uint64_t i = 0; i < 5; ++i) {
      writer.record(ok_entry(i, {f64_bits(1.0 / static_cast<double>(i + 3)),
                                 i}));
    }
    writer.flush();
  }
  const std::string first = slurp(path);
  {
    Checkpointer resumed(path, "unit", 77, 8);
    ASSERT_EQ(resumed.resume_from_disk(), 5u);
    resumed.record(failed_entry(6, "diverged \"badly\"\n"));
    resumed.record(ok_entry(5, {f64_bits(-0.0)}));
    resumed.record(ok_entry(7, {}));
    EXPECT_EQ(resumed.size(), 8u);
    resumed.flush();
  }
  const std::string final_text = slurp(path);
  ASSERT_GT(final_text.size(), first.size());
  EXPECT_EQ(final_text.substr(0, first.size()), first)
      << "an append must not rewrite what is already on disk";

  Checkpointer reader(path, "unit", 77, 8);
  ASSERT_EQ(reader.resume_from_disk(), 8u);
  const std::vector<CheckpointEntry> entries = reader.entries();
  ASSERT_EQ(entries.size(), 8u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(entries[i].index, i);
    ASSERT_EQ(entries[i].words.size(), 2u);
    EXPECT_EQ(entries[i].words[0], f64_bits(1.0 / static_cast<double>(i + 3)));
    EXPECT_EQ(entries[i].words[1], i);
  }
  EXPECT_EQ(entries[5].index, 5u);
  EXPECT_EQ(entries[5].words, std::vector<std::uint64_t>{f64_bits(-0.0)});
  EXPECT_EQ(entries[6].index, 6u);
  EXPECT_EQ(entries[6].status, EntryStatus::kFailed);
  EXPECT_EQ(entries[6].note, "diverged \"badly\"\n");
  EXPECT_EQ(entries[7].index, 7u);
  EXPECT_TRUE(entries[7].words.empty());
  std::remove(path.c_str());
}

TEST(CheckpointLog, ConcurrentRecordersLandEveryEntryOnce) {
  const std::string path = temp_path("log_concurrent.json");
  std::remove(path.c_str());
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 250;
  {
    // Appends race with recording.
    const ScopedEnv cadence("RASCAL_CHECKPOINT_EVERY", "7");
    Checkpointer writer(path, "unit", 77, kThreads * kPerThread);
    std::vector<std::thread> workers;
    for (std::uint64_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&writer, t] {
        for (std::uint64_t k = 0; k < kPerThread; ++k) {
          const std::uint64_t i = k * kThreads + t;
          writer.record(ok_entry(i, {i * 3, ~i}));
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    writer.flush();
    EXPECT_EQ(writer.size(), kThreads * kPerThread);
  }
  EXPECT_EQ(load_checkpoint_file(path).entries.size(), kThreads * kPerThread);
  Checkpointer reader(path, "unit", 77, kThreads * kPerThread);
  ASSERT_EQ(reader.resume_from_disk(), kThreads * kPerThread);
  const std::vector<CheckpointEntry> entries = reader.entries();
  for (std::uint64_t i = 0; i < kThreads * kPerThread; ++i) {
    ASSERT_EQ(entries[i].index, i);
    EXPECT_EQ(entries[i].words, (std::vector<std::uint64_t>{i * 3, ~i}));
  }
  std::remove(path.c_str());
}

TEST(CheckpointLog, SizeCountsDistinctIndicesAndRecordChecksTheRange) {
  const std::string path = temp_path("log_distinct.json");
  std::remove(path.c_str());
  Checkpointer writer(path, "unit", 77, 8);
  writer.record(ok_entry(2, {1}));
  writer.record(failed_entry(2, "re-recorded after a failed append"));
  writer.record(ok_entry(5, {1}));
  EXPECT_EQ(writer.size(), 2u);
  // The reader rejects a file holding an index >= total, so the writer
  // refuses to write one.
  EXPECT_THROW(writer.record(ok_entry(8, {1})), CheckpointError);
  EXPECT_EQ(writer.size(), 2u);
  writer.flush();
  Checkpointer reader(path, "unit", 77, 8);
  ASSERT_EQ(reader.resume_from_disk(), 2u);
  EXPECT_EQ(reader.entries()[0].status, EntryStatus::kFailed)
      << "the last record of an index wins";
  std::remove(path.c_str());
}

TEST(CheckpointLog, EmptyFlushOfAnExistingFileWritesNothing) {
  const std::string path = temp_path("log_empty_flush.json");
  const std::string before = write_three_segments(path);
  Checkpointer resumed(path, "unit", 77, 8);
  ASSERT_EQ(resumed.resume_from_disk(), 5u);
  resumed.flush();
  EXPECT_EQ(slurp(path), before);
  std::remove(path.c_str());
}

TEST(CheckpointLog, SwappedSegmentsAreRejected) {
  const std::string path = temp_path("log_swapped.json");
  const std::vector<std::string> lines = split_lines(write_three_segments(path));
  ASSERT_EQ(lines.size(), 4u);  // header + three segments
  spit(path, lines[0] + lines[2] + lines[1] + lines[3]);
  EXPECT_NE(rejection_message(path).find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointLog, RepeatedSegmentIsRejected) {
  const std::string path = temp_path("log_repeated.json");
  const std::vector<std::string> lines = split_lines(write_three_segments(path));
  ASSERT_EQ(lines.size(), 4u);
  spit(path, lines[0] + lines[1] + lines[1] + lines[2] + lines[3]);
  EXPECT_NE(rejection_message(path).find("checksum"), std::string::npos);
  spit(path, lines[0] + lines[1] + lines[2] + lines[3] + lines[3]);
  EXPECT_NE(rejection_message(path).find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointLog, V1FileIsRejectedByName) {
  const std::string path = temp_path("log_v1.json");
  // Byte for byte what the rascal-checkpoint-v1 writer produced for
  // entries 0 (ok) and 3 (failed) of a "unit" run.
  spit(path,
       "{\"format\":\"rascal-checkpoint-v1\",\"kind\":\"unit\","
       "\"digest\":\"000000000000004d\",\"total\":8,\"entries\":["
       "{\"i\":0,\"s\":1,\"w\":[4598175219545276416,42]},"
       "{\"i\":3,\"s\":2,\"w\":[],\"note\":\"diverged\"}],"
       "\"checksum\":\"4a5f4092921583be\"}\n");
  const std::string message = rejection_message(path);
  EXPECT_NE(message.find("rascal-checkpoint-v1"), std::string::npos)
      << message;
  EXPECT_NE(message.find(path), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST(CheckpointLog, TornFinalRecordGivesTheSalvageOffset) {
  const std::string path = temp_path("log_torn.json");
  const std::string text = write_three_segments(path);
  const std::vector<std::string> lines = split_lines(text);
  ASSERT_EQ(lines.size(), 4u);
  const std::size_t prefix = text.size() - lines[3].size();
  // A kill in the middle of the last append.
  spit(path, text.substr(0, prefix + lines[3].size() / 2));
  const std::string message = rejection_message(path);
  const std::string hint = "truncate -s " + std::to_string(prefix);
  EXPECT_NE(message.find(hint), std::string::npos) << message;

  // Cutting the file where the message says keeps the verified work.
  const std::string salvaged = temp_path("log_torn_salvaged.json");
  spit(salvaged, slurp(path).substr(0, prefix));
  Checkpointer reader(salvaged, "unit", 77, 8);
  ASSERT_EQ(reader.resume_from_disk(), 4u);
  const std::vector<CheckpointEntry> entries = reader.entries();
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(entries[i].index, i);
    EXPECT_EQ(entries[i].words,
              std::vector<std::uint64_t>{
                  f64_bits(static_cast<double>(i) * 0.1)});
  }
  std::remove(path.c_str());
  std::remove(salvaged.c_str());
}

TEST(CheckpointLog, U64OverflowIsRejectedUnderAValidChain) {
  const std::string path = temp_path("log_overflow.json");
  const auto file_with = [](const std::string& index,
                            const std::string& word) {
    std::uint64_t chain = 14695981039346656037ULL;
    std::string text = chained_line(
        "{\"format\":\"rascal-checkpoint-v2\",\"kind\":\"unit\","
        "\"digest\":\"000000000000004d\",\"total\":8",
        chain);
    text += chained_line("{\"entries\":[{\"i\":" + index +
                             ",\"s\":1,\"w\":[" + word + "]}]",
                         chain);
    return text;
  };
  // The hand-built chain itself verifies.
  spit(path, file_with("1", "18446744073709551615"));
  {
    Checkpointer reader(path, "unit", 77, 8);
    ASSERT_EQ(reader.resume_from_disk(), 1u);
    EXPECT_EQ(reader.entries()[0].words[0], 18446744073709551615ULL);
  }
  // 2^64 + 1 must not wrap to index 1, nor 2^64 to word 0.
  spit(path, file_with("18446744073709551617", "7"));
  EXPECT_NE(rejection_message(path).find("overflows"), std::string::npos);
  spit(path, file_with("1", "18446744073709551616"));
  EXPECT_NE(rejection_message(path).find("overflows"), std::string::npos);
  std::remove(path.c_str());
}

// Short appends, forced by a file-size limit set just past what is on
// disk, in a forked child (a root test process ignores permission
// bits, so a read-only file would not fail the write).  Returns ""
// when the child saw the contract hold.
std::string short_append_child(const std::string& path,
                               Checkpointer::WriteFailurePolicy policy) {
  std::signal(SIGXFSZ, SIG_IGN);
  std::remove(path.c_str());
  rlimit original{};
  if (::getrlimit(RLIMIT_FSIZE, &original) != 0) return "getrlimit failed";
  const auto cap_at = [&](std::size_t bytes) {
    rlimit capped = original;
    capped.rlim_cur = bytes;
    return ::setrlimit(RLIMIT_FSIZE, &capped) == 0;
  };
  const bool aborts = policy == Checkpointer::WriteFailurePolicy::kAbort;
  // True when a flush failed the way the policy says it should.
  const auto flush_fails = [&](Checkpointer& writer) {
    try {
      writer.flush();
    } catch (const CheckpointError&) {
      return aborts;
    }
    return !aborts;
  };

  Checkpointer writer(path, "unit", 77, 8);
  writer.set_write_failure_policy(policy);
  for (std::uint64_t i = 0; i < 5; ++i) writer.record(ok_entry(i, {i}));
  // A first append cut short inside the header leaves no file.
  if (!cap_at(10)) return "setrlimit failed";
  if (!flush_fails(writer)) return "the cut first append did not fail";
  if (checkpoint_file_exists(path)) return "a torn first append left a file";
  if (::setrlimit(RLIMIT_FSIZE, &original) != 0) return "setrlimit failed";
  writer.flush();
  const std::string verified = slurp(path);
  if (load_checkpoint_file(path).entries.size() != 5) {
    return "the retried first append did not land its 5 entries";
  }

  // A later append cut short is truncated back to the verified prefix.
  if (!cap_at(verified.size() + 10)) return "setrlimit failed";
  for (std::uint64_t i = 5; i < 8; ++i) writer.record(ok_entry(i, {i}));
  if (!flush_fails(writer)) return "the cut append did not fail";
  if (slurp(path) != verified) {
    return "the file is not back at its verified prefix";
  }
  if (load_checkpoint_file(path).entries.size() != 5) {
    return "the rolled-back file does not load its 5 entries";
  }
  if (aborts) return "";

  // Under kTolerate the next flush lands every entry.
  if (writer.write_failures() != 2) return "the failures were not counted";
  if (::setrlimit(RLIMIT_FSIZE, &original) != 0) return "setrlimit failed";
  writer.flush();
  if (slurp(path).substr(0, verified.size()) != verified) {
    return "the retry rewrote the verified prefix";
  }
  Checkpointer reader(path, "unit", 77, 8);
  if (reader.resume_from_disk() != 8) return "the retry lost entries";
  const std::vector<CheckpointEntry> entries = reader.entries();
  for (std::uint64_t i = 0; i < 8; ++i) {
    if (entries[i].index != i || entries[i].words != std::vector{i}) {
      return "entry " + std::to_string(i) + " did not round-trip";
    }
  }
  return writer.write_failures() == 2 ? "" : "the retry was counted as failed";
}

void expect_short_append_contract(const std::string& path,
                                  Checkpointer::WriteFailurePolicy policy) {
  EXPECT_EXIT(
      {
        const std::string problem = short_append_child(path, policy);
        std::fputs(problem.c_str(), stderr);
        std::_Exit(problem.empty() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  std::remove(path.c_str());
}

TEST(CheckpointLogDeathTest, ShortAppendRollsBackAndThrowsUnderAbort) {
  expect_short_append_contract(temp_path("log_short_abort.json"),
                               Checkpointer::WriteFailurePolicy::kAbort);
}

TEST(CheckpointLogDeathTest, ShortAppendRollsBackAndIsRetriedUnderTolerate) {
  expect_short_append_contract(temp_path("log_short_tolerate.json"),
                               Checkpointer::WriteFailurePolicy::kTolerate);
}

// --- Chaos hook ----------------------------------------------------------

class ChaosGuard {
 public:
  ~ChaosGuard() { chaos::configure(""); }
};

TEST(Chaos, DisabledByDefaultAndAfterEmptySpec) {
  ChaosGuard guard;
  chaos::configure("");
  EXPECT_FALSE(chaos::enabled());
  EXPECT_FALSE(chaos::fires_at("worker-throw", 0));
  chaos::worker_hook(0);  // no-op, must not throw
}

TEST(Chaos, IndexKeyedSitesFireOnlyAtTheirIndex) {
  ChaosGuard guard;
  chaos::configure("worker-throw@3,sigterm@9");
  EXPECT_TRUE(chaos::enabled());
  EXPECT_TRUE(chaos::fires_at("worker-throw", 3));
  EXPECT_FALSE(chaos::fires_at("worker-throw", 4));
  EXPECT_TRUE(chaos::fires_at("sigterm", 9));
  EXPECT_FALSE(chaos::fires_at("sigterm", 3));
}

TEST(Chaos, WorkerHookThrowsChaosErrorAtArmedIndex) {
  ChaosGuard guard;
  chaos::configure("worker-throw@5");
  chaos::worker_hook(4);  // not armed
  try {
    chaos::worker_hook(5);
    FAIL() << "expected ChaosError";
  } catch (const chaos::ChaosError& e) {
    EXPECT_NE(std::string(e.what()).find("5"), std::string::npos);
  }
}

TEST(Chaos, TickIsOccurrenceKeyedAndResetByConfigure) {
  ChaosGuard guard;
  chaos::configure("solver-nonconverge@2");
  EXPECT_FALSE(chaos::tick("solver-nonconverge"));  // occurrence 0
  EXPECT_FALSE(chaos::tick("solver-nonconverge"));  // occurrence 1
  EXPECT_TRUE(chaos::tick("solver-nonconverge"));   // occurrence 2
  EXPECT_FALSE(chaos::tick("solver-nonconverge"));  // occurrence 3
  chaos::configure("solver-nonconverge@0");         // counters reset
  EXPECT_TRUE(chaos::tick("solver-nonconverge"));
}

TEST(Chaos, MalformedTokensAreIgnored) {
  ChaosGuard guard;
  chaos::configure("nonsense,worker-throw@notanumber,@4,,sigterm@2");
  EXPECT_TRUE(chaos::enabled());  // the one valid token armed it
  EXPECT_TRUE(chaos::fires_at("sigterm", 2));
  EXPECT_FALSE(chaos::fires_at("worker-throw", 4));
}

}  // namespace
}  // namespace rascal::resil
