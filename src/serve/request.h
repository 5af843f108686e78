// Solve-request records for the batch/serve execution mode.
//
// A request stream is JSONL: one self-contained JSON object per line,
// read from a file (`rascal_cli batch`) or stdin (`rascal_cli
// serve`).  Each request names a model file, optional parameter
// overrides, the solver configuration, and which metrics to report:
//
//   {"model": "examples/models/hadb_pair.rasc",
//    "set": {"FIR": 0.0005, "La_hadb": 0.00023},
//    "method": "gmres", "precond": "ilu0",
//    "outputs": ["availability", "downtime"], "id": "sweep-17"}
//
// Only "model" is required.  Unknown fields are rejected (a typoed
// "methd" must not silently solve with the default), numeric fields
// must be finite (strict io/number_parse rules), and a malformed line
// becomes a per-request error record in the results sink — never a
// process abort.  docs/serving.md documents the full schema.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "ctmc/steady_state.h"
#include "expr/parameter_set.h"
#include "resil/retry.h"

namespace rascal::serve {

/// Malformed request line (bad JSON, unknown field, duplicate field,
/// non-finite number, missing "model").  Caught by the batch runner
/// and turned into an error record carrying this message.
class RequestError : public std::runtime_error,
                     public resil::ErrorClassTag {
 public:
  using std::runtime_error::runtime_error;
  [[nodiscard]] resil::ErrorClass error_class() const noexcept override {
    return resil::ErrorClass::kParse;
  }
};

/// Metrics a request may ask for (the "outputs" array).
enum class OutputKind {
  kAvailability,
  kUnavailability,
  kDowntime,          // minutes per year
  kMtbf,              // hours
  kMttf,              // hours
  kMttr,              // hours
  kRewardRate,        // expected reward rate (performability)
  kFailureFrequency,  // system failures per hour
};

/// The output's name in requests, records and the CLI's --metric:
/// "availability", "unavailability", "downtime", "mtbf", "mttf",
/// "mttr", "reward_rate", "failure_frequency".
[[nodiscard]] const char* to_string(OutputKind kind) noexcept;

/// Inverse of to_string(); returns false and leaves `out` untouched
/// for any other name.
[[nodiscard]] bool parse_output(const std::string& name,
                                OutputKind& out) noexcept;

/// The figure of `metrics` that `kind` names.
[[nodiscard]] double metric_value(OutputKind kind,
                                  const core::AvailabilityMetrics& metrics);

/// One parsed solve request.
struct Request {
  std::string id;          // echoed in the response when non-empty
  std::string model_path;  // required
  expr::ParameterSet overrides;
  ctmc::SteadyStateMethod method = ctmc::SteadyStateMethod::kGth;
  linalg::PrecondKind precond = linalg::PrecondKind::kIlu0;
  std::size_t sparse_threshold = 0;
  std::size_t max_iterations = 0;
  std::size_t gmres_restart = 0;
  /// Defaults to {availability, downtime} when the line has no
  /// "outputs" array.
  std::vector<OutputKind> outputs = {OutputKind::kAvailability,
                                     OutputKind::kDowntime};
};

/// Parses one JSONL line.  Throws RequestError on any problem; the
/// message carries a byte offset so a 10^4-line campaign file is
/// debuggable.
[[nodiscard]] Request parse_request(const std::string& line);

/// JSON string escaping for ids and error messages embedded in result
/// records (quotes, backslashes, control characters).
[[nodiscard]] std::string escape_json(const std::string& text);

/// Schema tag stamped into every result record.  Bump when the record
/// shape changes so downstream query tooling can dispatch.
inline constexpr const char* kResultSchema = "rascal.serve.v1";

/// Renders the result record of a successful solve: values are
/// printed with %.17g so records round-trip exactly and rendering is
/// deterministic (byte-identical across thread counts and cache
/// temperature).  `values` aligns with `request.outputs`.  A
/// non-empty `fallback` annotates a request the supervisor recovered
/// on a lower rung of the fallback ladder (e.g. "gth",
/// "precond:jacobi"): the numbers are honest, but they were not
/// produced by the configuration the request asked for, and the
/// record says so — degraded results are never silent.
[[nodiscard]] std::string render_result_line(
    std::size_t index, const Request& request,
    const std::vector<double>& values, const std::string& fallback = "");

/// Renders a per-request error record (parse failure, unknown model,
/// solver error).  `id` may be empty (unparsable lines have none).
/// `error_class` is the resil taxonomy slug (resil::to_string); empty
/// omits the field (legacy records and checkpoint-replayed failures).
[[nodiscard]] std::string render_error_line(
    std::size_t index, const std::string& id, const std::string& error,
    const std::string& error_class = "");

/// Renders the record of a request refused by admission control
/// ("status":"shed").  Shed requests are accounted for — distinct
/// from errors so a stream consumer can tell "your request was bad"
/// from "the server refused to run it under current limits".
[[nodiscard]] std::string render_shed_line(std::size_t index,
                                           const std::string& id,
                                           const std::string& reason);

}  // namespace rascal::serve
