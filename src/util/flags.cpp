#include "util/flags.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace egoist::util {

namespace {
bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

/// Levenshtein edit distance; small strings only (flag names).
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}
}  // namespace

std::optional<std::string> closest_name(const std::string& name,
                                        const std::vector<std::string>& candidates) {
  std::optional<std::string> best;
  std::size_t best_distance = 0;
  for (const auto& candidate : candidates) {
    const std::size_t d = edit_distance(name, candidate);
    if (!best || d < best_distance) {
      best = candidate;
      best_distance = d;
    }
  }
  // Only suggest plausible typos: within ~a third of the name's length
  // (at least 2 edits so one-letter names still get a hint).
  const std::size_t cutoff =
      std::max<std::size_t>(2, std::max(name.size(), best ? best->size() : 0) / 3);
  if (!best || best_distance > cutoff) return std::nullopt;
  return best;
}

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--name value" form when the next token is not itself a flag;
    // otherwise a boolean switch.
    if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

std::optional<std::string> Flags::get(const std::string& name) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::get_string(const std::string& name, const std::string& def) const {
  defaults_.emplace(name, def);
  return get(name).value_or(def);
}

int Flags::get_int(const std::string& name, int def) const {
  defaults_.emplace(name, std::to_string(def));
  const auto v = get(name);
  if (!v) return def;
  try {
    std::size_t used = 0;
    const int parsed = std::stoi(*v, &used);
    if (used != v->size()) throw std::invalid_argument("trailing characters");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" + *v + "'");
  }
}

double Flags::get_double(const std::string& name, double def) const {
  {
    std::ostringstream os;
    os << def;
    defaults_.emplace(name, os.str());
  }
  const auto v = get(name);
  if (!v) return def;
  try {
    std::size_t used = 0;
    const double parsed = std::stod(*v, &used);
    if (used != v->size()) throw std::invalid_argument("trailing characters");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" + *v + "'");
  }
}

bool Flags::get_bool(const std::string& name, bool def) const {
  defaults_.emplace(name, def ? "true" : "false");
  const auto v = get(name);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" + *v + "'");
}

std::uint64_t Flags::get_seed(const std::string& name, std::uint64_t def) const {
  defaults_.emplace(name, std::to_string(def));
  const auto v = get(name);
  if (!v) return def;
  try {
    return parse_seed(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a seed, got '" + *v + "'");
  }
}

std::uint64_t parse_seed(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) {
    throw std::invalid_argument("expected an unsigned decimal seed, got '" +
                                text + "'");
  }
  return value;
}

double parse_duration_seconds(const std::string& text) {
  const auto fail = [&]() -> double {
    throw std::invalid_argument("bad duration '" + text +
                                "' (expected e.g. 250ms, 5s, 2m, 1h)");
  };
  if (text.empty()) return fail();
  // Split off the longest trailing run of letters as the unit.
  std::size_t unit_at = text.size();
  while (unit_at > 0 && std::isalpha(static_cast<unsigned char>(
                            text[unit_at - 1]))) {
    --unit_at;
  }
  const std::string number = text.substr(0, unit_at);
  const std::string unit = text.substr(unit_at);
  if (number.empty()) return fail();
  double value = 0.0;
  std::size_t used = 0;
  try {
    value = std::stod(number, &used);
  } catch (const std::exception&) {
    return fail();
  }
  if (used != number.size() || value < 0.0 || !std::isfinite(value)) {
    return fail();
  }
  if (unit.empty() || unit == "s") return value;
  if (unit == "ms") return value * 1e-3;
  if (unit == "us") return value * 1e-6;
  if (unit == "ns") return value * 1e-9;
  if (unit == "m" || unit == "min") return value * 60.0;
  if (unit == "h") return value * 3600.0;
  return fail();
}

std::uint64_t parse_size_bytes(const std::string& text) {
  const auto fail = [&]() -> std::uint64_t {
    throw std::invalid_argument("bad size '" + text +
                                "' (expected e.g. 4096, 64K, 8M, 1G)");
  };
  if (text.empty()) return fail();
  std::size_t unit_at = text.size();
  while (unit_at > 0 && std::isalpha(static_cast<unsigned char>(
                            text[unit_at - 1]))) {
    --unit_at;
  }
  const std::string number = text.substr(0, unit_at);
  std::string unit = text.substr(unit_at);
  for (auto& c : unit) c = static_cast<char>(std::tolower(
                               static_cast<unsigned char>(c)));
  if (!unit.empty() && unit.back() == 'b') unit.pop_back();  // "64KB"
  if (number.empty()) return fail();
  std::uint64_t multiplier = 1;
  if (unit == "k") {
    multiplier = 1ull << 10;
  } else if (unit == "m") {
    multiplier = 1ull << 20;
  } else if (unit == "g") {
    multiplier = 1ull << 30;
  } else if (!unit.empty()) {
    return fail();
  }
  // The count may be fractional only if the product is whole ("1.5M" ok,
  // "1.5" bytes not). Parse as double, demand an integral byte count.
  double value = 0.0;
  std::size_t used = 0;
  try {
    value = std::stod(number, &used);
  } catch (const std::exception&) {
    return fail();
  }
  if (used != number.size() || value < 0.0 || !std::isfinite(value)) {
    return fail();
  }
  const double bytes = value * static_cast<double>(multiplier);
  if (bytes > 9.2e18 || bytes != std::floor(bytes)) return fail();
  return static_cast<std::uint64_t>(bytes);
}

double Flags::get_duration(const std::string& name,
                           const std::string& def) const {
  defaults_.emplace(name, def);
  const auto v = get(name);
  try {
    return parse_duration_seconds(v.value_or(def));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("flag --" + name + ": " + e.what());
  }
}

std::uint64_t Flags::get_size(const std::string& name,
                              const std::string& def) const {
  defaults_.emplace(name, def);
  const auto v = get(name);
  try {
    return parse_size_bytes(v.value_or(def));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("flag --" + name + ": " + e.what());
  }
}

std::vector<std::pair<std::string, std::string>> Flags::consume_all() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [name, value] : values_) {
    queried_[name] = true;
    out.emplace_back(name, value);
  }
  return out;
}

std::vector<std::string> Flags::unqueried() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : values_) {
    if (!queried_.count(name)) out.push_back(name);
  }
  return out;
}

bool Flags::help_requested() const {
  const auto it = values_.find("help");
  if (it == values_.end()) return false;
  // Mirror get_bool: an explicit false-ish value means "no help".
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::string Flags::usage() const {
  std::ostringstream os;
  os << "flags:\n";
  for (const auto& [name, def] : defaults_) {
    os << "  --" << name << "  (default: " << def << ")\n";
  }
  os << "  --help  (print this message and exit)\n";
  return os.str();
}

void Flags::finish(const std::string& description) const {
  if (help_requested()) {
    if (!description.empty()) std::cout << description << "\n\n";
    std::cout << usage();
    std::exit(0);
  }
  queried_["help"] = true;  // an explicit --help=false is consumed, not a typo
  const auto leftover = unqueried();
  if (!leftover.empty()) {
    std::vector<std::string> known;
    for (const auto& [name, _] : defaults_) known.push_back(name);
    known.push_back("help");
    std::string message = "unknown flag: --" + leftover.front();
    if (const auto hint = closest_name(leftover.front(), known)) {
      message += " (did you mean --" + *hint + "?)";
    }
    throw std::invalid_argument(message);
  }
}

}  // namespace egoist::util
