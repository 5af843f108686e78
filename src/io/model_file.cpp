#include "io/model_file.h"

#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "expr/expression.h"
#include "expr/lexer.h"

namespace rascal::io {

namespace {

// Cursor over one comment-stripped line that remembers the 1-based
// column of every token it hands out, so errors and the SourceMap can
// point at the offending word rather than just the line.
class LineScanner {
 public:
  explicit LineScanner(const std::string& raw) : line_(raw) {
    const auto hash = line_.find('#');
    if (hash != std::string::npos) line_.erase(hash);
    const auto last = line_.find_last_not_of(" \t\r");
    line_.erase(last == std::string::npos ? 0 : last + 1);
    skip_spaces();
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= line_.size(); }

  /// Column the next token would start at (1-based).
  [[nodiscard]] std::size_t column() const noexcept { return pos_ + 1; }

  /// Next whitespace-delimited word ("" at end of line).
  std::pair<std::string, std::size_t> word() {
    const std::size_t column = pos_ + 1;
    const auto end = line_.find_first_of(" \t", pos_);
    std::string text =
        line_.substr(pos_, end == std::string::npos ? end : end - pos_);
    pos_ = end == std::string::npos ? line_.size() : end;
    skip_spaces();
    return {std::move(text), column};
  }

  /// Rest of the line verbatim (expressions keep internal spaces).
  std::pair<std::string, std::size_t> rest() {
    const std::size_t column = pos_ + 1;
    std::string text = line_.substr(pos_);
    pos_ = line_.size();
    return {std::move(text), column};
  }

 private:
  void skip_spaces() {
    pos_ = line_.find_first_not_of(" \t", pos_);
    if (pos_ == std::string::npos) pos_ = line_.size();
  }

  std::string line_;
  std::size_t pos_ = 0;
};

}  // namespace

expr::ParameterSet ModelFile::parameters_with(
    const expr::ParameterSet& overrides) const {
  for (const auto& [override_name, value] : overrides) {
    (void)value;
    if (!parameters.contains(override_name)) {
      throw UndeclaredParameterError(override_name);
    }
  }
  return parameters.with(overrides);
}

ctmc::Ctmc ModelFile::bind(const expr::ParameterSet& overrides) const {
  return model.bind(parameters_with(overrides));
}

ModelFile parse_model(std::istream& in) {
  ModelFile out;
  std::set<std::string> param_names;
  // Generated models repeat a few rewards and rate expressions over
  // thousands of lines; each distinct text is parsed once and the
  // lines share its AST.  A text that fails to parse is not stored, so
  // its first line reports the error as before.
  std::unordered_map<std::string, expr::Expression> parsed_texts;
  const auto parse_once =
      [&parsed_texts](const std::string& text) -> const expr::Expression& {
    auto found = parsed_texts.find(text);
    if (found == parsed_texts.end()) {
      found = parsed_texts.emplace(text, expr::Expression::parse(text)).first;
    }
    return found->second;
  };
  std::string raw;
  std::size_t line_number = 0;
  bool has_rate = false;

  while (std::getline(in, raw)) {
    ++line_number;
    LineScanner scan(raw);
    if (scan.at_end()) continue;

    const auto [directive, directive_col] = scan.word();
    if (directive == "model") {
      out.name = scan.rest().first;
    } else if (directive == "param") {
      const auto [name, name_col] = scan.word();
      const auto [value_text, value_col] = scan.rest();
      if (name.empty() || value_text.empty()) {
        throw ModelFileError("expected 'param NAME VALUE'", line_number,
                             directive_col);
      }
      if (!param_names.insert(name).second) {
        throw ModelFileError("duplicate parameter '" + name + "'",
                             line_number, name_col);
      }
      try {
        // Values may reference earlier parameters ("La_as/La").
        const expr::Expression value = expr::Expression::parse(value_text);
        for (const std::string& used : value.variables()) {
          out.params_used_in_definitions.insert(used);
        }
        out.parameters.set(name, value.evaluate(out.parameters));
      } catch (const std::exception& e) {
        throw ModelFileError(
            "bad value for parameter '" + name + "': " + e.what(),
            line_number, value_col);
      }
      out.source.parameters[name] = {line_number, name_col};
    } else if (directive == "state") {
      const auto [name, name_col] = scan.word();
      const auto [reward_kw, reward_kw_col] = scan.word();
      const auto [reward_text, reward_col] = scan.rest();
      if (name.empty() || reward_kw != "reward" || reward_text.empty()) {
        throw ModelFileError("expected 'state NAME reward VALUE'",
                             line_number,
                             reward_kw == "reward" || reward_kw.empty()
                                 ? directive_col
                                 : reward_kw_col);
      }
      if (out.model.find_state(name)) {
        throw ModelFileError("duplicate state '" + name + "'", line_number,
                             name_col);
      }
      double reward = 0.0;
      try {
        const expr::Expression& parsed = parse_once(reward_text);
        for (const std::string& used : parsed.variables()) {
          out.params_used_in_definitions.insert(used);
        }
        reward = parsed.evaluate(out.parameters);
      } catch (const std::exception& e) {
        throw ModelFileError(
            "bad reward for state '" + name + "': " + e.what(), line_number,
            reward_col);
      }
      (void)out.model.state(name, reward);
      out.source.states[name] = {line_number, name_col};
    } else if (directive == "rate") {
      const auto [from, from_col] = scan.word();
      const auto [to, to_col] = scan.word();
      const auto [expression, expr_col] = scan.rest();
      if (from.empty() || to.empty() || expression.empty()) {
        throw ModelFileError("expected 'rate FROM TO EXPRESSION'",
                             line_number, directive_col);
      }
      if (!out.model.find_state(from)) {
        throw ModelFileError("unknown state '" + from + "'", line_number,
                             from_col);
      }
      if (!out.model.find_state(to)) {
        throw ModelFileError("unknown state '" + to + "'", line_number,
                             to_col);
      }
      const expr::Expression* rate = nullptr;
      try {
        rate = &parse_once(expression);
      } catch (const std::exception& e) {
        throw ModelFileError(std::string("bad rate expression: ") + e.what(),
                             line_number, expr_col);
      }
      out.model.rate(from, to, *rate);
      out.source.transitions.push_back({line_number, from_col});
      has_rate = true;
    } else {
      throw ModelFileError("unknown directive '" + directive + "'",
                           line_number, directive_col);
    }
  }

  if (out.model.num_states() == 0) {
    throw ModelFileError("model declares no states", line_number);
  }
  if (!has_rate) {
    throw ModelFileError("model declares no transitions", line_number);
  }
  return out;
}

ModelFile parse_model_text(const std::string& text) {
  std::istringstream in(text);
  return parse_model(in);
}

lint::LintReport lint_model_file(const ModelFile& file,
                                 const expr::ParameterSet& overrides,
                                 const lint::LintOptions& options) {
  lint::LintOptions file_options = options;
  file_options.warn_unused_parameters = true;
  const lint::LintReport report =
      lint::lint_model(file.model, file.parameters.with(overrides),
                       file_options, &file.source);
  // A parameter consumed by another param's value (or a state reward)
  // was used, even though the eager evaluation hides that use from the
  // symbolic model; drop the R021 false positives.
  lint::LintReport filtered;
  for (const lint::Diagnostic& d : report) {
    if (d.code == lint::codes::kUnusedParameter &&
        file.params_used_in_definitions.count(d.location.parameter) > 0) {
      continue;
    }
    filtered.add(d);
  }
  return filtered;
}

ModelFile load_model(const std::string& path, LintOnLoad lint) {
  std::ifstream in(path);
  if (!in) {
    throw ModelFileError("cannot open model file: " + path, 0);
  }
  ModelFile file = parse_model(in);
  file.source.file = path;
  if (lint == LintOnLoad::kOn) {
    lint::LintReport report = lint_model_file(file);
    if (report.has_errors()) {
      throw lint::LintError(std::move(report));
    }
  }
  return file;
}

}  // namespace rascal::io
