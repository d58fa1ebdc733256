#include "exp/params.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/flags.hpp"

namespace egoist::exp {

namespace {
/// std::stoi over the whole string: "10k" and "" throw.
int parse_whole_int(const std::string& text) {
  std::size_t used = 0;
  const int parsed = std::stoi(text, &used);
  if (used != text.size()) throw std::invalid_argument("trailing characters");
  return parsed;
}

void record(std::vector<std::pair<std::string, std::string>>& defaults,
            const std::string& key, const std::string& def) {
  for (const auto& [k, _] : defaults) {
    if (k == key) return;
  }
  defaults.emplace_back(key, def);
}
}  // namespace

const std::string* ParamReader::find_and_mark(const std::string& key) const {
  if (std::find(read_.begin(), read_.end(), key) == read_.end()) {
    read_.push_back(key);
  }
  return spec_->find(key);
}

std::string ParamReader::get_string(const std::string& key,
                                    const std::string& def) const {
  record(defaults_, key, def);
  const auto* v = find_and_mark(key);
  return v ? *v : def;
}

int ParamReader::get_int(const std::string& key, int def) const {
  record(defaults_, key, std::to_string(def));
  const auto* v = find_and_mark(key);
  if (!v) return def;
  try {
    return parse_whole_int(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("scenario knob '" + key +
                                "' expects an integer, got '" + *v + "'");
  }
}

std::vector<int> ParamReader::get_int_list(const std::string& key,
                                           const std::string& def) const {
  record(defaults_, key, def);
  const auto* v = find_and_mark(key);
  const std::string& text = v ? *v : def;
  const auto error = [&] {
    return std::invalid_argument("scenario knob '" + key +
                                 "' expects a comma list of integers, got '" +
                                 text + "'");
  };
  std::vector<int> out;
  for (const auto& item : split_csv(text)) {
    try {
      out.push_back(parse_whole_int(item));
    } catch (const std::exception&) {
      throw error();
    }
  }
  if (out.empty()) throw error();
  return out;
}

double ParamReader::get_double(const std::string& key, double def) const {
  {
    std::ostringstream os;
    os << def;
    record(defaults_, key, os.str());
  }
  const auto* v = find_and_mark(key);
  if (!v) return def;
  try {
    std::size_t used = 0;
    const double parsed = std::stod(*v, &used);
    if (used != v->size()) throw std::invalid_argument("trailing characters");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("scenario knob '" + key +
                                "' expects a number, got '" + *v + "'");
  }
}

bool ParamReader::get_bool(const std::string& key, bool def) const {
  record(defaults_, key, def ? "true" : "false");
  const auto* v = find_and_mark(key);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("scenario knob '" + key +
                              "' expects a boolean, got '" + *v + "'");
}

std::uint64_t ParamReader::get_seed(const std::string& key,
                                    std::uint64_t def) const {
  record(defaults_, key, std::to_string(def));
  const auto* v = find_and_mark(key);
  if (!v) return def;
  try {
    return util::parse_seed(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("scenario knob '" + key +
                                "' expects a seed, got '" + *v + "'");
  }
}

std::vector<std::string> ParamReader::unread() const {
  std::vector<std::string> out;
  for (const auto& [key, _] : spec_->params) {
    if (std::find(read_.begin(), read_.end(), key) == read_.end()) {
      out.push_back(key);
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> ParamReader::known() const {
  auto out = defaults_;
  std::sort(out.begin(), out.end());
  return out;
}

void ParamReader::finish() const {
  const auto leftover = unread();
  if (leftover.empty()) return;
  std::vector<std::string> names;
  for (const auto& [key, _] : defaults_) names.push_back(key);
  // Knobs can arrive from the scenario file or as --flag overrides, so the
  // message names both sources and the hint also covers the CLI control
  // flags (mirrors exp/cli.cpp) — a misspelled --jsonl lands here too.
  static const std::vector<std::string> kControlFlags{
      "scenario", "experiment", "jsonl", "jobs", "list", "help"};
  std::string message = "unknown knob '" + leftover.front() +
                        "' for experiment " + spec_->experiment +
                        " (set in scenario '" + spec_->name +
                        "' or as a --flag override)";
  if (const auto hint = util::closest_name(leftover.front(), names)) {
    message += " — did you mean '" + *hint + "'?";
  } else if (const auto control =
                 util::closest_name(leftover.front(), kControlFlags)) {
    message += " — did you mean the control flag --" + *control + "?";
  }
  throw std::invalid_argument(message);
}

}  // namespace egoist::exp
