// Minimal command-line flag parsing for bench binaries and examples.
//
// Supports "--name=value" and "--name value" forms plus boolean switches
// ("--verbose"). Unknown flags raise an error so typos in experiment sweeps
// fail loudly instead of silently running the default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace egoist::util {

/// Parsed command line. Construct once from argc/argv, then query typed
/// accessors with per-flag defaults.
class Flags {
 public:
  /// Parses argv[1..argc). Throws std::invalid_argument on malformed input.
  Flags(int argc, const char* const* argv);

  /// Returns the raw string value if the flag was present.
  std::optional<std::string> get(const std::string& name) const;

  std::string get_string(const std::string& name, const std::string& def) const;
  int get_int(const std::string& name, int def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def = false) const;
  std::uint64_t get_seed(const std::string& name, std::uint64_t def) const;

  /// Duration flag in seconds. Accepts suffixed values ("250ms", "5s",
  /// "2m", "1h", "10us") or a bare number of seconds; `def` is itself
  /// suffixed text so --help shows the idiomatic form (e.g. "30s").
  double get_duration(const std::string& name, const std::string& def) const;

  /// Size flag in bytes. Accepts binary suffixes ("64K", "8M", "1G",
  /// optionally with a trailing B: "64KB") or a bare byte count; `def` is
  /// suffixed text (e.g. "1M").
  std::uint64_t get_size(const std::string& name, const std::string& def) const;

  /// Flags seen on the command line that were never queried; used by
  /// binaries to reject typos after all get_* calls are done.
  std::vector<std::string> unqueried() const;

  /// Every flag present on the command line as (name, raw value), in
  /// sorted-name order, marking them all queried. Used by the scenario CLI,
  /// which forwards arbitrary --key=value flags as parameter overrides.
  std::vector<std::pair<std::string, std::string>> consume_all() const;

  /// True if --help was passed on the command line.
  bool help_requested() const;

  /// One "--name (default: value)" line per flag queried so far; call after
  /// all get_* calls so every flag the binary understands is listed.
  std::string usage() const;

  /// Standard epilogue for a CLI binary: on --help, prints `description`
  /// plus usage() to stdout and exits 0; otherwise throws
  /// std::invalid_argument on any flag that was never queried, suggesting
  /// the closest known flag (typo safety).
  void finish(const std::string& description = "") const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  mutable std::map<std::string, std::string> defaults_;
};

/// Returns the candidate closest to `name` by edit distance, or nullopt
/// when nothing is close enough to be a plausible typo. Shared by Flags
/// and the scenario-parameter reader so both reject typos with the same
/// "did you mean" hint.
std::optional<std::string> closest_name(const std::string& name,
                                        const std::vector<std::string>& candidates);

/// Parses a human duration into seconds: "250ms" -> 0.25, "5s" -> 5,
/// "2m" -> 120, "1.5h" -> 5400, "10us" -> 1e-5; a bare number is seconds.
/// Throws std::invalid_argument on anything else (including negatives).
double parse_duration_seconds(const std::string& text);

/// Parses a seed: the whole string must be unsigned decimal digits that
/// fit in 64 bits — no sign, no base prefix, no trailing characters (so
/// "-1" is not 2^64 - 1 and "42x" is not 42). Throws
/// std::invalid_argument otherwise. Both the flag and the scenario-knob
/// readers parse seeds here, each naming its flag or knob in the error.
std::uint64_t parse_seed(const std::string& text);

/// Parses a human size into bytes with binary (1024) suffixes:
/// "64K" -> 65536, "8M", "1G", optional trailing 'B' ("64KB"), case
/// insensitive; a bare integer is bytes. Throws std::invalid_argument on
/// anything else (including negatives and fractional byte counts).
std::uint64_t parse_size_bytes(const std::string& text);

}  // namespace egoist::util
