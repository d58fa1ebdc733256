// Typed access to a scenario's knobs, with the same typo safety as
// util::Flags: every key an experiment understands is recorded (with its
// default) as it is read, and finish() rejects keys that were never read,
// suggesting the closest known knob. This is what makes a misspelled knob
// in a scenario file or on the CLI fail loudly instead of silently running
// the default configuration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace egoist::exp {

class ParamReader {
 public:
  explicit ParamReader(const ScenarioSpec& spec) : spec_(&spec) {}

  const ScenarioSpec& spec() const { return *spec_; }

  std::string get_string(const std::string& key, const std::string& def) const;
  int get_int(const std::string& key, int def) const;
  /// A non-empty comma list of integers ("50,100,200"); every item must
  /// parse whole, as in get_int. `def` is the list as written.
  std::vector<int> get_int_list(const std::string& key,
                                const std::string& def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def = false) const;
  std::uint64_t get_seed(const std::string& key, std::uint64_t def) const;

  /// Keys present in the spec that were never read.
  std::vector<std::string> unread() const;

  /// Every (key, default) recorded by the get_* calls so far, in key order.
  std::vector<std::pair<std::string, std::string>> known() const;

  /// Throws std::invalid_argument on any unread key, naming the scenario
  /// and suggesting the closest known knob. Call after the experiment ran
  /// (i.e. after every get_* it will ever perform).
  void finish() const;

 private:
  const std::string* find_and_mark(const std::string& key) const;

  const ScenarioSpec* spec_;
  mutable std::vector<std::string> read_;
  mutable std::vector<std::pair<std::string, std::string>> defaults_;
};

}  // namespace egoist::exp
