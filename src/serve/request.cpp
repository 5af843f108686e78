#include "serve/request.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace rascal::serve {

namespace {

constexpr std::pair<OutputKind, const char*> kOutputNames[] = {
    {OutputKind::kAvailability, "availability"},
    {OutputKind::kUnavailability, "unavailability"},
    {OutputKind::kDowntime, "downtime"},
    {OutputKind::kMtbf, "mtbf"},
    {OutputKind::kMttf, "mttf"},
    {OutputKind::kMttr, "mttr"},
    {OutputKind::kRewardRate, "reward_rate"},
    {OutputKind::kFailureFrequency, "failure_frequency"},
};

std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

// Minimal recursive-descent reader for the one-line request objects.
// Deliberately strict: no escape sequences beyond the JSON basics, no
// non-finite numbers, no unknown fields, no trailing content.
class RequestReader {
 public:
  explicit RequestReader(const std::string& text) : text_(text) {}

  Request parse() {
    Request request;
    bool has_model = false;
    bool has_outputs = false;
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
    } else {
      while (true) {
        const std::string key = parse_string();
        // Duplicate keys are hostile input: JSON leaves their meaning
        // undefined, and "last one wins" would let an attacker smuggle
        // a second "model" past a prefix-scanning auditor.
        for (const std::string& prior : seen_keys_) {
          if (prior == key) fail("duplicate field '" + key + "'");
        }
        seen_keys_.push_back(key);
        expect(':');
        parse_field(key, request, has_model, has_outputs);
        skip_whitespace();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        break;
      }
    }
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after request object");
    if (!has_model) fail("request is missing the \"model\" field");
    return request;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw RequestError("request, offset " + std::to_string(pos_) + ": " +
                       message);
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void expect(char c) {
    skip_whitespace();
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) fail("unterminated escape");
        switch (text_[pos_]) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: fail("unsupported escape sequence");
        }
      }
      out += c;
      ++pos_;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  double parse_finite_number() {
    skip_whitespace();
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) fail("expected a number");
    pos_ += static_cast<std::size_t>(end - begin);
    if (!std::isfinite(value)) fail("non-finite number");
    return value;
  }

  std::size_t parse_count(const std::string& field) {
    const double value = parse_finite_number();
    if (value < 0.0 || value != std::floor(value)) {
      fail("field \"" + field + "\" must be a non-negative integer");
    }
    return static_cast<std::size_t>(value);
  }

  void parse_overrides(Request& request) {
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      const std::string name = parse_string();
      if (name.empty()) fail("empty parameter name in \"set\"");
      expect(':');
      request.overrides.set(name, parse_finite_number());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_outputs(Request& request) {
    request.outputs.clear();
    expect('[');
    skip_whitespace();
    if (peek() == ']') fail("\"outputs\" must name at least one metric");
    while (true) {
      const std::string name = parse_string();
      OutputKind kind{};
      if (!parse_output(name, kind)) fail("unknown output '" + name + "'");
      request.outputs.push_back(kind);
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  void parse_field(const std::string& key, Request& request, bool& has_model,
                   bool& has_outputs) {
    if (key == "model") {
      request.model_path = parse_string();
      if (request.model_path.empty()) fail("\"model\" must not be empty");
      has_model = true;
    } else if (key == "id") {
      request.id = parse_string();
    } else if (key == "set") {
      parse_overrides(request);
    } else if (key == "method") {
      const std::string name = parse_string();
      if (!ctmc::parse_method(name, request.method)) {
        fail("unknown method '" + name + "'");
      }
    } else if (key == "precond") {
      const std::string name = parse_string();
      if (!linalg::parse_precond(name, request.precond)) {
        fail("unknown preconditioner '" + name + "'");
      }
    } else if (key == "sparse_threshold") {
      request.sparse_threshold = parse_count(key);
    } else if (key == "max_iterations") {
      request.max_iterations = parse_count(key);
    } else if (key == "gmres_restart") {
      request.gmres_restart = parse_count(key);
    } else if (key == "outputs") {
      parse_outputs(request);
      has_outputs = true;
    } else {
      fail("unknown field '" + key + "'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::vector<std::string> seen_keys_;
};

}  // namespace

const char* to_string(OutputKind kind) noexcept {
  for (const auto& [value, name] : kOutputNames) {
    if (value == kind) return name;
  }
  return "unknown";
}

bool parse_output(const std::string& name, OutputKind& out) noexcept {
  for (const auto& [value, text] : kOutputNames) {
    if (name == text) {
      out = value;
      return true;
    }
  }
  return false;
}

double metric_value(OutputKind kind, const core::AvailabilityMetrics& m) {
  switch (kind) {
    case OutputKind::kAvailability: return m.availability;
    case OutputKind::kUnavailability: return m.unavailability;
    case OutputKind::kDowntime: return m.downtime_minutes_per_year;
    case OutputKind::kMtbf: return m.mtbf_hours;
    case OutputKind::kMttf: return m.mttf_hours;
    case OutputKind::kMttr: return m.mttr_hours;
    case OutputKind::kRewardRate: return m.expected_reward_rate;
    case OutputKind::kFailureFrequency: return m.failure_frequency;
  }
  return 0.0;
}

Request parse_request(const std::string& line) {
  return RequestReader(line).parse();
}

std::string escape_json(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string render_result_line(std::size_t index, const Request& request,
                               const std::vector<double>& values,
                               const std::string& fallback) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kResultSchema << "\",\"index\":" << index;
  if (!request.id.empty()) {
    os << ",\"id\":\"" << escape_json(request.id) << "\"";
  }
  os << ",\"status\":\"ok\"";
  if (!fallback.empty()) {
    os << ",\"fallback\":\"" << escape_json(fallback) << "\"";
  }
  os << ",\"results\":{";
  for (std::size_t k = 0; k < request.outputs.size(); ++k) {
    if (k > 0) os << ",";
    os << "\"" << to_string(request.outputs[k])
       << "\":" << format_double(values.at(k));
  }
  os << "}}";
  return os.str();
}

std::string render_error_line(std::size_t index, const std::string& id,
                              const std::string& error,
                              const std::string& error_class) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kResultSchema << "\",\"index\":" << index;
  if (!id.empty()) os << ",\"id\":\"" << escape_json(id) << "\"";
  os << ",\"status\":\"error\"";
  if (!error_class.empty()) {
    os << ",\"class\":\"" << escape_json(error_class) << "\"";
  }
  os << ",\"error\":\"" << escape_json(error) << "\"}";
  return os.str();
}

std::string render_shed_line(std::size_t index, const std::string& id,
                             const std::string& reason) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kResultSchema << "\",\"index\":" << index;
  if (!id.empty()) os << ",\"id\":\"" << escape_json(id) << "\"";
  os << ",\"status\":\"shed\",\"reason\":\"" << escape_json(reason) << "\"}";
  return os.str();
}

}  // namespace rascal::serve
