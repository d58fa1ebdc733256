// Structured result emission for the scenario driver.
//
// Every experiment reports through one ResultSink: sections (figure
// headers), result tables, free-form console text (footnotes), and — for
// experiments with custom console layouts — bare structured rows. Console
// rendering and machine-readable JSON lines are two implementations of the
// same interface, so a run can print exactly what the old hand-rolled
// binaries printed while simultaneously streaming rows to a .jsonl file.
//
// JSON-lines schema (one object per line; docs/EXPERIMENTS.md):
//   {"type":"scenario","scenario":S,"experiment":E,"params":{k:v,...}}
//   {"type":"section","scenario":S,"title":T,"caption":C}
//   {"type":"row","scenario":S,"panel":P,"columns":[...],"cells":[...]}
// Cells are the formatted strings the console table shows, so sequential
// and parallel sweeps can be byte-compared for trajectory drift.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "util/table.hpp"

namespace egoist::exp {

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Scenario metadata; called once, before any other event.
  virtual void begin_scenario(const std::string& scenario,
                              const std::string& experiment,
                              const Params& params) = 0;

  /// A figure/panel header ("=== title ===" + caption on the console).
  virtual void section(const std::string& title, const std::string& caption) = 0;

  /// One result table; `panel` is a stable id for structured consumers.
  virtual void table(const std::string& panel, const util::Table& t) = 0;

  /// One structured row without console rendering (rows that belong to
  /// no console table, e.g. scale_frontier's per-phase profile rows).
  virtual void row(const std::string& panel,
                   const std::vector<std::string>& columns,
                   const std::vector<std::string>& cells) = 0;

  /// Free-form console text, written verbatim (include trailing newlines).
  /// Structured sinks ignore it.
  virtual void text(const std::string& raw) = 0;

  virtual void end_scenario() {}
};

/// Renders to a terminal in the pre-driver bench binaries' format. For
/// the all-numeric figure tables the bytes are identical to the pre-driver
/// output; tables with text columns differ only by Table's text-column
/// left-alignment.
class ConsoleSink final : public ResultSink {
 public:
  explicit ConsoleSink(std::ostream& os) : os_(os) {}

  void begin_scenario(const std::string&, const std::string&,
                      const Params&) override {}
  void section(const std::string& title, const std::string& caption) override;
  void table(const std::string& panel, const util::Table& t) override;
  void row(const std::string&, const std::vector<std::string>&,
           const std::vector<std::string>&) override {}
  void text(const std::string& raw) override;

 private:
  std::ostream& os_;
};

/// Streams the structured schema above, one JSON object per line.
class JsonLinesSink final : public ResultSink {
 public:
  explicit JsonLinesSink(std::ostream& os) : os_(os) {}

  void begin_scenario(const std::string& scenario, const std::string& experiment,
                      const Params& params) override;
  void section(const std::string& title, const std::string& caption) override;
  void table(const std::string& panel, const util::Table& t) override;
  void row(const std::string& panel, const std::vector<std::string>& columns,
           const std::vector<std::string>& cells) override;
  void text(const std::string&) override {}

 private:
  std::ostream& os_;
  std::string scenario_;
};

/// Fans every event out to several sinks (console + jsonl, typically).
class TeeSink final : public ResultSink {
 public:
  explicit TeeSink(std::vector<ResultSink*> sinks) : sinks_(std::move(sinks)) {}

  void begin_scenario(const std::string& scenario, const std::string& experiment,
                      const Params& params) override;
  void section(const std::string& title, const std::string& caption) override;
  void table(const std::string& panel, const util::Table& t) override;
  void row(const std::string& panel, const std::vector<std::string>& columns,
           const std::vector<std::string>& cells) override;
  void text(const std::string& raw) override;
  void end_scenario() override;

 private:
  std::vector<ResultSink*> sinks_;
};

/// Records events for later replay — the sweep runner gives each parallel
/// cell a BufferSink so the merged output is in deterministic cell order.
class BufferSink final : public ResultSink {
 public:
  void begin_scenario(const std::string& scenario, const std::string& experiment,
                      const Params& params) override;
  void section(const std::string& title, const std::string& caption) override;
  void table(const std::string& panel, const util::Table& t) override;
  void row(const std::string& panel, const std::vector<std::string>& columns,
           const std::vector<std::string>& cells) override;
  void text(const std::string& raw) override;
  void end_scenario() override;

  /// Re-emits every recorded event into `sink`, in order.
  void replay(ResultSink& sink) const;

  bool empty() const { return events_.empty(); }

 private:
  struct Event {
    enum class Kind { kBegin, kSection, kTable, kRow, kText, kEnd } kind;
    std::string a, b;  // scenario/experiment, title/caption, panel, raw
    Params params;
    std::shared_ptr<const util::Table> table;
    std::vector<std::string> columns, cells;
  };
  std::vector<Event> events_;
};

}  // namespace egoist::exp
