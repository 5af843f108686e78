// Unit tests for the batch/serve layer: the strict JSONL request
// parser (hostile input becomes a typed RequestError, never a crash
// or silent default), the deterministic record rendering, the ordered
// results sink, the end-to-end batch runner including per-request
// error records and cold/warm cache bit-identity, and the one
// evaluation path that batch shares with the CLI's solving subcommands.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "ctmc/solve_cache.h"
#include "io/model_file.h"
#include "resil/chaos.h"
#include "serve/batch.h"
#include "serve/request.h"
#include "serve/sink.h"
#include "serve/supervise.h"

namespace rascal::serve {
namespace {

// ---- request parsing --------------------------------------------------

TEST(ServeRequest, ParsesFullRequest) {
  const Request request = parse_request(
      R"({"model": "m.rasc", "id": "r1", "set": {"FIR": 0.001, "La": 2e-4},)"
      R"( "method": "gmres", "precond": "jacobi", "sparse_threshold": 50,)"
      R"( "max_iterations": 200, "gmres_restart": 30,)"
      R"( "outputs": ["availability", "mtbf", "reward_rate"]})");
  EXPECT_EQ(request.model_path, "m.rasc");
  EXPECT_EQ(request.id, "r1");
  EXPECT_DOUBLE_EQ(request.overrides.get("FIR"), 0.001);
  EXPECT_DOUBLE_EQ(request.overrides.get("La"), 2e-4);
  EXPECT_EQ(request.method, ctmc::SteadyStateMethod::kGmres);
  EXPECT_EQ(request.precond, linalg::PrecondKind::kJacobi);
  EXPECT_EQ(request.sparse_threshold, 50u);
  EXPECT_EQ(request.max_iterations, 200u);
  EXPECT_EQ(request.gmres_restart, 30u);
  ASSERT_EQ(request.outputs.size(), 3u);
  EXPECT_EQ(request.outputs[0], OutputKind::kAvailability);
  EXPECT_EQ(request.outputs[1], OutputKind::kMtbf);
  EXPECT_EQ(request.outputs[2], OutputKind::kRewardRate);
}

TEST(ServeRequest, MinimalRequestGetsDefaults) {
  const Request request = parse_request(R"({"model": "m.rasc"})");
  EXPECT_EQ(request.method, ctmc::SteadyStateMethod::kGth);
  EXPECT_EQ(request.precond, linalg::PrecondKind::kIlu0);
  ASSERT_EQ(request.outputs.size(), 2u);
  EXPECT_EQ(request.outputs[0], OutputKind::kAvailability);
  EXPECT_EQ(request.outputs[1], OutputKind::kDowntime);
}

TEST(ServeRequest, RejectsHostileInput) {
  const char* cases[] = {
      "",                                          // empty line
      "not json",                                  // not an object
      R"({"set": {"FIR": 1}})",                    // missing model
      R"({"model": ""})",                          // empty model path
      R"({"model": "m.rasc", "methd": "lu"})",     // typoed field
      R"({"model": "m.rasc", "method": "qr"})",    // unknown method
      R"({"model": "m.rasc", "method": "lu"})",    // reference solver
      R"({"model": "m.rasc", "precond": "amg"})",  // unknown precond
      R"({"model": "m.rasc", "outputs": []})",     // empty outputs
      R"({"model": "m.rasc", "outputs": ["upness"]})",  // unknown output
      R"({"model": "m.rasc", "set": {"FIR": nan}})",    // non-finite
      R"({"model": "m.rasc", "set": {"FIR": 1e999}})",  // overflows
      R"({"model": "m.rasc", "set": {"": 1}})",         // empty name
      R"({"model": "m.rasc", "max_iterations": -3})",   // negative count
      R"({"model": "m.rasc", "max_iterations": 1.5})",  // fractional
      R"({"model": "m.rasc", "max_iterations": 1e30})",    // past size_t
      R"({"model": "m.rasc", "sparse_threshold": 1e30})",  // past size_t
      R"({"model": "m.rasc", "set": {"FIR": 0x1p-10}})",   // hexfloat
      R"({"model": "m.rasc"} trailing)",                // trailing text
      R"({"model": "m.rasc")",                          // unterminated
      R"({"model": "m.rasc", "set": {"FIR": }})",       // missing value
  };
  for (const char* line : cases) {
    EXPECT_THROW((void)parse_request(line), RequestError)
        << "accepted: " << line;
  }
}

TEST(ServeRequest, CountsAreExactIntegersBelowTwoToThe53) {
  // Every integer below 2^53 survives the trip through a double; 2^53
  // is also what "9007199254740993" reads as, so it is refused.
  const Request request = parse_request(
      R"({"model": "m.rasc", "max_iterations": 9007199254740991})");
  EXPECT_EQ(request.max_iterations, 9007199254740991u);
  const std::string past =
      R"({"model": "m.rasc", "max_iterations": 9007199254740993})";
  EXPECT_THROW((void)parse_request(past), RequestError);
}

TEST(ServeRequest, OutputNamesRoundTripAndSelectTheirMetric) {
  // Fields in declaration order: availability, unavailability,
  // downtime, reward rate, failure frequency, MTBF, MTTF, MTTR.
  const core::AvailabilityMetrics m{1, 2, 3, 4, 5, 6, 7, 8};
  const std::pair<OutputKind, double> cases[] = {
      {OutputKind::kAvailability, 1},     {OutputKind::kUnavailability, 2},
      {OutputKind::kDowntime, 3},         {OutputKind::kRewardRate, 4},
      {OutputKind::kFailureFrequency, 5}, {OutputKind::kMtbf, 6},
      {OutputKind::kMttf, 7},             {OutputKind::kMttr, 8}};
  for (const auto& [kind, value] : cases) {
    OutputKind parsed = kind == OutputKind::kAvailability
                            ? OutputKind::kDowntime
                            : OutputKind::kAvailability;
    ASSERT_TRUE(parse_output(to_string(kind), parsed)) << to_string(kind);
    EXPECT_EQ(parsed, kind);
    EXPECT_EQ(metric_value(kind, m), value) << to_string(kind);
  }
}

TEST(ServeRequest, ErrorsCarryByteOffsets) {
  try {
    (void)parse_request(R"({"model": "m.rasc", "bogus": 1})");
    FAIL() << "unknown field accepted";
  } catch (const RequestError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

// ---- record rendering -------------------------------------------------

TEST(ServeRender, ResultLineIsDeterministicJson) {
  Request request;
  request.id = "sweep-17";
  request.outputs = {OutputKind::kAvailability, OutputKind::kDowntime};
  const std::string line = render_result_line(3, request, {0.5, 1.0 / 3.0});
  EXPECT_EQ(line,
            "{\"schema\":\"rascal.serve.v1\",\"index\":3,\"id\":\"sweep-17\","
            "\"status\":\"ok\",\"results\":{\"availability\":0.5,"
            "\"downtime\":0.33333333333333331}}");
}

TEST(ServeRender, ErrorLineEscapesMessage) {
  const std::string line =
      render_error_line(0, "id\"x", "bad \"input\"\nline2");
  EXPECT_EQ(line,
            "{\"schema\":\"rascal.serve.v1\",\"index\":0,\"id\":\"id\\\"x\","
            "\"status\":\"error\",\"error\":\"bad \\\"input\\\"\\nline2\"}");
}

// ---- results sink -----------------------------------------------------

TEST(ServeSink, WritesRecordsInIndexOrder) {
  std::ostringstream out;
  {
    ResultsSink sink(out);
    // Deliberately out of order: nothing may appear until index 0
    // lands, then the whole contiguous prefix drains.
    sink.push(2, "two");
    sink.push(1, "one");
    sink.push(0, "zero");
    sink.push(3, "three");
    EXPECT_EQ(sink.close(), 4u);
  }
  EXPECT_EQ(out.str(), "zero\none\ntwo\nthree\n");
}

TEST(ServeSink, CloseCountsGapsAndKeepsLaterRecordsWithoutFiller) {
  std::ostringstream out;
  ResultsSink sink(out);
  sink.push(0, "zero");
  sink.push(2, "two");  // index 1 never arrives (dead worker)
  EXPECT_EQ(sink.close(), 2u);
  // Without a filler nothing is emitted for the hole, but the gap is
  // counted and the later record is no longer silently dropped.
  EXPECT_EQ(out.str(), "zero\ntwo\n");
  EXPECT_EQ(sink.gaps(), 1u);
}

TEST(ServeSink, CloseFillsGapsThroughTheFiller) {
  std::ostringstream out;
  ResultsSink sink(out);
  sink.set_gap_filler([](std::size_t index) {
    return "gap:" + std::to_string(index);
  });
  sink.push(0, "zero");
  sink.push(3, "three");  // indices 1 and 2 never arrive
  EXPECT_EQ(sink.close(), 4u);
  EXPECT_EQ(out.str(), "zero\ngap:1\ngap:2\nthree\n");
  EXPECT_EQ(sink.gaps(), 2u);
  EXPECT_EQ(sink.write_failures(), 0u);
}

TEST(ServeSink, TrailingUnpushedIndicesAreNotGaps) {
  std::ostringstream out;
  ResultsSink sink(out);
  sink.set_gap_filler([](std::size_t index) {
    return "gap:" + std::to_string(index);
  });
  sink.push(0, "zero");
  sink.push(1, "one");  // an interrupted run simply stops here
  EXPECT_EQ(sink.close(), 2u);
  EXPECT_EQ(out.str(), "zero\none\n");
  EXPECT_EQ(sink.gaps(), 0u);
}

TEST(ServeSink, ChaosWriteFailureIsCountedNotSilent) {
  resil::chaos::configure("sink-write-fail@1");
  std::ostringstream out;
  {
    ResultsSink sink(out);
    sink.push(0, "zero");
    sink.push(1, "one");
    sink.push(2, "two");
    EXPECT_EQ(sink.close(), 3u);
    EXPECT_EQ(sink.write_failures(), 1u);
  }
  resil::chaos::configure("");
  // Record 1 was refused by the stream; later indices keep flowing.
  EXPECT_EQ(out.str(), "zero\ntwo\n");
}

// ---- batch runner -----------------------------------------------------

class ServeBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per case: ctest runs the cases as parallel processes
    // that share TempDir(), and each TearDown deletes its own file.
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    model_path_ = testing::TempDir() + "serve_batch_" + info->name() + ".rasc";
    std::ofstream model(model_path_);
    model << "model test pair\n"
             "param La 0.002\n"
             "param Mu 0.5\n"
             "state Up reward 1\n"
             "state Down reward 0\n"
             "rate Up Down La\n"
             "rate Down Up Mu\n";
  }

  void TearDown() override { std::remove(model_path_.c_str()); }

  [[nodiscard]] std::string request_line(const char* extra = "") const {
    return std::string("{\"model\": \"") + model_path_ + "\"" + extra + "}";
  }

  std::string model_path_;
};

TEST_F(ServeBatchTest, MalformedLineBecomesErrorRecordNotAbort) {
  const std::vector<std::string> lines = {
      request_line(), "garbage", request_line(", \"id\": \"ok2\"")};
  std::ostringstream out;
  const BatchResult result = run_batch(lines, out, {});
  EXPECT_EQ(result.requests, 3u);
  EXPECT_EQ(result.succeeded, 2u);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.written, 3u);

  std::istringstream records(out.str());
  std::string record;
  ASSERT_TRUE(std::getline(records, record));
  EXPECT_NE(record.find("\"index\":0,\"status\":\"ok\""), std::string::npos);
  ASSERT_TRUE(std::getline(records, record));
  EXPECT_NE(record.find("\"index\":1,\"status\":\"error\""),
            std::string::npos);
  ASSERT_TRUE(std::getline(records, record));
  EXPECT_NE(record.find("\"id\":\"ok2\",\"status\":\"ok\""),
            std::string::npos);
}

TEST_F(ServeBatchTest, UnknownModelBecomesErrorRecord) {
  const std::vector<std::string> lines = {
      "{\"model\": \"/nonexistent/void.rasc\"}", request_line()};
  std::ostringstream out;
  const BatchResult result = run_batch(lines, out, {});
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.succeeded, 1u);
  EXPECT_NE(out.str().find("\"status\":\"error\""), std::string::npos);
}

TEST_F(ServeBatchTest, UndeclaredParameterBecomesModelErrorRecord) {
  // The solve would never read NOPE, so answering would report the
  // unperturbed model as if the override had applied.
  const std::vector<std::string> lines = {
      request_line(", \"set\": {\"NOPE\": 1}"), request_line()};
  std::ostringstream out;
  const BatchResult result = run_batch(lines, out, {});
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.succeeded, 1u);
  EXPECT_NE(out.str().find("\"index\":0,\"status\":\"error\","
                           "\"class\":\"model\""),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("'NOPE'"), std::string::npos) << out.str();
}

TEST_F(ServeBatchTest, ColdAndWarmCacheBitIdentical) {
  // Ten requests over three distinct parameter points: the shared
  // cache must hit and the bytes must match a cache-disabled run.
  std::vector<std::string> lines;
  for (int i = 0; i < 10; ++i) {
    const char* sets[] = {", \"set\": {\"La\": 0.001}",
                          ", \"set\": {\"La\": 0.002}",
                          ", \"set\": {\"La\": 0.003}"};
    lines.push_back(request_line(sets[i % 3]));
  }

  std::ostringstream warm_out;
  BatchOptions warm;
  warm.cache_capacity = 64;
  const BatchResult warm_result = run_batch(lines, warm_out, warm);
  EXPECT_EQ(warm_result.succeeded, 10u);
  EXPECT_GT(warm_result.cache.hits, 0u);
  EXPECT_GT(warm_result.hit_rate(), 0.0);

  std::ostringstream cold_out;
  BatchOptions cold;
  cold.cache_capacity = 0;  // shared tier off
  const BatchResult cold_result = run_batch(lines, cold_out, cold);
  EXPECT_EQ(cold_result.succeeded, 10u);
  EXPECT_EQ(cold_result.cache.hits, 0u);

  EXPECT_EQ(warm_out.str(), cold_out.str());
}

TEST_F(ServeBatchTest, ChecksumDigestCoversEveryLine) {
  const std::vector<std::string> a = {request_line(), request_line()};
  std::vector<std::string> b = a;
  b[1] += " ";
  EXPECT_NE(batch_checkpoint_digest(a), batch_checkpoint_digest(b));
}

TEST_F(ServeBatchTest, ChecksumDigestCoversSupervisionKnobs) {
  // Resuming under different retry or shedding rules would splice
  // incompatible record streams: every knob must change the digest.
  const std::vector<std::string> lines = {request_line()};
  const std::uint64_t base = batch_checkpoint_digest(lines);
  SupervisionOptions changed;
  changed.retry.max_attempts = 5;
  EXPECT_NE(batch_checkpoint_digest(lines, changed), base);
  changed = {};
  changed.admission_states = 10;
  EXPECT_NE(batch_checkpoint_digest(lines, changed), base);
  changed = {};
  changed.queue_cap = 7;
  EXPECT_NE(batch_checkpoint_digest(lines, changed), base);
}

TEST_F(ServeBatchTest, AdmissionStateCapShedsWithDistinctRecords) {
  const std::vector<std::string> lines = {request_line(", \"id\": \"big\""),
                                          request_line()};
  std::ostringstream out;
  BatchOptions options;
  options.supervision.admission_states = 1;  // the pair model has 2
  const BatchResult result = run_batch(lines, out, options);
  EXPECT_EQ(result.shed, 2u);
  EXPECT_EQ(result.succeeded, 0u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.written, 2u);
  EXPECT_FALSE(result.lossy());
  std::istringstream records(out.str());
  std::string record;
  ASSERT_TRUE(std::getline(records, record));
  EXPECT_NE(record.find("\"id\":\"big\",\"status\":\"shed\""),
            std::string::npos)
      << record;
  EXPECT_NE(record.find("admission: model declares 2 states, cap is 1"),
            std::string::npos)
      << record;
}

TEST_F(ServeBatchTest, QueueCapShedsTailInIndexOrder) {
  std::vector<std::string> lines;
  for (int i = 0; i < 4; ++i) lines.push_back(request_line());
  std::ostringstream out;
  BatchOptions options;
  options.supervision.queue_cap = 2;
  const BatchResult result = run_batch(lines, out, options);
  EXPECT_EQ(result.succeeded, 2u);
  EXPECT_EQ(result.shed, 2u);
  std::istringstream records(out.str());
  std::string record;
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(std::getline(records, record));
    const char* expected = i < 2 ? "\"status\":\"ok\"" : "\"status\":\"shed\"";
    EXPECT_NE(record.find(expected), std::string::npos)
        << "index " << i << ": " << record;
    if (i >= 2) {
      EXPECT_NE(record.find("queue full: 2 requests already admitted"),
                std::string::npos)
          << record;
    }
  }
}

TEST_F(ServeBatchTest, TransientChaosFaultRecoversBitIdentically) {
  const std::vector<std::string> lines = {request_line(), request_line()};
  std::ostringstream clean_out;
  const BatchResult clean = run_batch(lines, clean_out, {});
  EXPECT_EQ(clean.succeeded, 2u);

  resil::chaos::configure("solver-fault@0");
  std::ostringstream faulted_out;
  const BatchResult faulted = run_batch(lines, faulted_out, {});
  resil::chaos::configure("");
  EXPECT_EQ(faulted.succeeded, 2u);
  EXPECT_EQ(faulted.failed, 0u);
  // A recovered transient is invisible in the stream: same bytes.
  EXPECT_EQ(faulted_out.str(), clean_out.str());
}

TEST_F(ServeBatchTest, ExhaustedRetriesBecomeClassifiedErrorRecords) {
  const std::vector<std::string> lines = {request_line(", \"id\": \"doomed\"")};
  // Default policy allows 3 attempts; arm a fault for each of them.
  resil::chaos::configure("solver-fault@0,solver-fault@1,solver-fault@2");
  std::ostringstream out;
  BatchOptions options;
  options.threads = 1;  // occurrence-keyed site: keep the order exact
  const BatchResult result = run_batch(lines, out, options);
  resil::chaos::configure("");
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.succeeded, 0u);
  EXPECT_NE(out.str().find("\"id\":\"doomed\",\"status\":\"error\","
                           "\"class\":\"transient\""),
            std::string::npos)
      << out.str();
}

TEST_F(ServeBatchTest, AbandonedWorkerChunkIsGapFilledAndCounted) {
  const std::vector<std::string> lines = {request_line(), request_line()};
  resil::chaos::configure("worker-abandon@0");
  std::ostringstream out;
  BatchOptions options;
  options.threads = 2;  // index 0 and 1 land in different chunks
  const BatchResult result = run_batch(lines, out, options);
  resil::chaos::configure("");
  EXPECT_EQ(result.succeeded, 1u);
  EXPECT_EQ(result.gaps, 1u);
  EXPECT_EQ(result.lost, 1u);
  EXPECT_TRUE(result.lossy());
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.written, 2u);  // the gap record keeps the stream whole
  std::istringstream records(out.str());
  std::string record;
  ASSERT_TRUE(std::getline(records, record));
  EXPECT_NE(record.find("\"index\":0,\"status\":\"error\",\"class\":\"lost\""),
            std::string::npos)
      << record;
  ASSERT_TRUE(std::getline(records, record));
  EXPECT_NE(record.find("\"index\":1"), std::string::npos) << record;
  EXPECT_NE(record.find("\"status\":\"ok\""), std::string::npos) << record;
}

TEST_F(ServeBatchTest, HostileCorpusEveryRequestAccountedFor) {
  // Adversarial stream: none of these may abort the process, leak a
  // record, or stall the run — each line ends as exactly one record.
  std::vector<std::string> lines;
  lines.push_back(std::string(100000, '{'));            // deep nesting
  lines.push_back(std::string(10u << 20, 'x'));         // 10 MiB garbage
  lines.push_back(std::string("{\"model\": \"m\0.rasc\"}", 21));  // NUL
  lines.push_back("{\"model\": \"m.rasc\xC3");          // truncated UTF-8
  lines.push_back("{\"model\": \"a.rasc\", \"model\": \"b.rasc\"}");  // dup
  lines.push_back("{\"model\": \"" + std::string(1 << 20, 'a') + "\"}");
  lines.push_back(request_line(", \"id\": \"survivor\""));
  std::ostringstream out;
  const BatchResult result = run_batch(lines, out, {});
  EXPECT_EQ(result.requests, lines.size());
  EXPECT_EQ(result.succeeded + result.failed + result.shed, lines.size());
  EXPECT_EQ(result.succeeded, 1u);
  EXPECT_EQ(result.written, lines.size());
  EXPECT_FALSE(result.lossy());
  // Duplicate keys are rejected, not last-wins silently.
  EXPECT_NE(out.str().find("duplicate field"), std::string::npos);
  EXPECT_NE(out.str().find("\"id\":\"survivor\",\"status\":\"ok\""),
            std::string::npos);
  std::istringstream records(out.str());
  std::string record;
  std::size_t count = 0;
  while (std::getline(records, record)) ++count;
  EXPECT_EQ(count, lines.size());
}

// ---- one evaluation path ----------------------------------------------

// solve, states, sweep and batch answer through evaluate(); uncertainty
// solves each sample once through SolveCache::steady_state.  On one
// request all of them must give the same bits.

constexpr ctmc::SteadyStateMethod kMethods[] = {
    ctmc::SteadyStateMethod::kGth, ctmc::SteadyStateMethod::kGmres,
    ctmc::SteadyStateMethod::kBiCgStab};

constexpr OutputKind kAllOutputs[] = {
    OutputKind::kAvailability, OutputKind::kUnavailability,
    OutputKind::kDowntime,     OutputKind::kMtbf,
    OutputKind::kMttf,         OutputKind::kMttr,
    OutputKind::kRewardRate,   OutputKind::kFailureFrequency};

std::vector<std::string> example_models() {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(RASCAL_SOURCE_DIR) + "/examples/models")) {
    if (entry.path().extension() == ".rasc") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

// A batch request for every output of `model` under `method`.
std::string full_request(const std::string& model,
                         ctmc::SteadyStateMethod method) {
  std::string line = "{\"model\": \"" + model + "\", \"method\": \"" +
                     ctmc::to_string(method) + "\", \"outputs\": [";
  for (const OutputKind kind : kAllOutputs) {
    if (kind != kAllOutputs[0]) line += ", ";
    line += std::string("\"") + to_string(kind) + "\"";
  }
  return line + "]}";
}

// The record of a one-line batch run, and its values in output order.
struct BatchRecord {
  std::string line;
  std::vector<double> values;
};

BatchRecord run_one(const std::string& request) {
  std::ostringstream out;
  BatchOptions options;
  options.threads = 1;  // occurrence-keyed chaos sites stay in order
  const BatchResult result = run_batch({request}, out, options);
  EXPECT_EQ(result.succeeded, 1u) << out.str();
  BatchRecord record{out.str(), {}};
  for (const OutputKind kind : kAllOutputs) {
    const std::string key = std::string("\"") + to_string(kind) + "\":";
    const std::size_t at = record.line.find(key);
    if (at == std::string::npos) {
      ADD_FAILURE() << "no " << key << " in " << record.line;
      return record;
    }
    record.values.push_back(
        std::strtod(record.line.c_str() + at + key.size(), nullptr));
  }
  return record;
}

void expect_same_bits(const core::AvailabilityMetrics& evaluated,
                      const core::AvailabilityMetrics& direct,
                      const BatchRecord& record, const std::string& what) {
  ASSERT_EQ(record.values.size(), std::size(kAllOutputs)) << what;
  for (std::size_t k = 0; k < std::size(kAllOutputs); ++k) {
    const double value = metric_value(kAllOutputs[k], evaluated);
    EXPECT_EQ(bits(value), bits(metric_value(kAllOutputs[k], direct)))
        << what << ": " << to_string(kAllOutputs[k]);
    EXPECT_EQ(bits(value), bits(record.values[k]))
        << what << ": " << to_string(kAllOutputs[k]);
  }
}

struct ChaosReset {
  ~ChaosReset() { resil::chaos::configure(""); }
};

TEST(EvaluateConsensus, EveryExampleModelAndMethodGivesTheSameBits) {
  const std::vector<std::string> models = example_models();
  ASSERT_FALSE(models.empty());
  for (const std::string& path : models) {
    const io::ModelFile file = io::load_model(path);
    for (const ctmc::SteadyStateMethod method : kMethods) {
      const std::string what = path + " " + ctmc::to_string(method);
      SolveSpec spec;
      spec.method = method;
      ctmc::SolveCache cache;
      const Evaluation evaluation = evaluate(file, {}, spec, cache, {});
      EXPECT_EQ(evaluation.solved.fallback, "") << what;
      EXPECT_EQ(evaluation.solved.attempts, 1u) << what;

      // The uncertainty path: one sample's bind and cached solve.
      ctmc::SolveCache sample_cache;
      const ctmc::Ctmc chain = file.model.bind(file.parameters_with({}));
      const core::AvailabilityMetrics direct = core::availability_metrics(
          chain, sample_cache.steady_state(chain, method));

      expect_same_bits(evaluation.metrics, direct,
                       run_one(full_request(path, method)), what);
    }
  }
}

TEST(EvaluateConsensus, ForcedKrylovNonConvergenceFallsBackToBicgstab) {
  // The one fallback policy: a GMRES solve forced not to converge is
  // answered by the ladder's next rung, BiCGStab, through evaluate and
  // through run_batch alike, with the bits of a direct BiCGStab solve.
  const ChaosReset reset;
  for (const std::string& path : example_models()) {
    const io::ModelFile file = io::load_model(path);
    SolveSpec spec;
    spec.method = ctmc::SteadyStateMethod::kGmres;
    ctmc::SolveCache cache;
    resil::chaos::configure("solver-nonconverge@0");
    const Evaluation evaluation = evaluate(file, {}, spec, cache, {});
    EXPECT_EQ(evaluation.solved.fallback, "bicgstab") << path;
    EXPECT_EQ(evaluation.solved.final_rung.method,
              ctmc::SteadyStateMethod::kBiCgStab)
        << path;

    resil::chaos::configure("solver-nonconverge@0");
    const BatchRecord record = run_one(full_request(path, spec.method));
    EXPECT_NE(record.line.find("\"fallback\":\"bicgstab\""),
              std::string::npos)
        << record.line;

    resil::chaos::configure("");
    const ctmc::Ctmc chain = file.bind();
    const core::AvailabilityMetrics direct = core::availability_metrics(
        chain,
        ctmc::solve_steady_state(chain, ctmc::SteadyStateMethod::kBiCgStab));
    expect_same_bits(evaluation.metrics, direct, record, path);
  }
}

TEST(ServeReadLines, KeepsBlankLinesAndStripsCr) {
  std::istringstream in("one\r\n\nthree");
  const std::vector<std::string> lines = read_request_lines(in);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[1], "");
  EXPECT_EQ(lines[2], "three");
}

}  // namespace
}  // namespace rascal::serve
