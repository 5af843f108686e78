// Sets an environment variable for one scope and restores its previous
// value (or its absence) on exit, so a test that steers a knob the
// library reads from the environment (RASCAL_THREADS,
// RASCAL_CHECKPOINT_EVERY) leaves later tests in the same process
// unaffected.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace rascal {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

}  // namespace rascal
