// Registry gate: every registered experiment must ship a scenario file,
// run end-to-end through run_scenario from that file (with shrunk knob
// overrides), and emit at least one structured row. Starting from the
// checked-in .scn file makes this the typo-safety gate for the shipped
// scenarios too: a knob a file sets that its experiment no longer reads
// fails here, not at a user's prompt.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "exp/cli.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"

namespace egoist::exp {
namespace {

/// Shrunk knobs per experiment: fast, but still exercising the full path.
const std::map<std::string, Params>& smoke_overrides() {
  static const std::map<std::string, Params> kOverrides{
      {"fig1_delay_ping",
       {{"n", "10"}, {"warmup", "1"}, {"sample", "1"}, {"k-min", "2"}, {"k-max", "2"}}},
      {"fig1_delay_coords",
       {{"n", "10"}, {"warmup", "1"}, {"sample", "1"}, {"k-min", "2"}, {"k-max", "2"}}},
      {"fig1_node_load",
       {{"n", "10"}, {"warmup", "1"}, {"sample", "1"}, {"k-min", "2"}, {"k-max", "2"}}},
      {"fig1_avail_bw",
       {{"n", "10"}, {"warmup", "1"}, {"sample", "1"}, {"k-min", "2"}, {"k-max", "2"}}},
      {"fig2_churn",
       {{"n", "8"}, {"epochs", "2"}, {"churn-warmup", "0"}, {"k-min", "3"}, {"k-max", "3"}}},
      {"fig3_rewirings",
       {{"n", "10"}, {"warmup", "1"}, {"sample", "1"}, {"k-min", "2"}, {"k-max", "2"},
        {"timeline-epochs", "2"}}},
      {"fig4_free_riders",
       {{"n", "50"}, {"warmup", "1"}, {"sample", "1"}, {"k-min", "2"}, {"k-max", "2"}}},
      {"fig5_8_sampling",
       {{"trials", "1"}, {"base-n", "24"}, {"m-min", "6"}, {"m-max", "6"}}},
      {"fig10_multipath_bw",
       {{"n", "10"}, {"warmup", "1"}, {"k-min", "2"}, {"k-max", "2"}}},
      {"fig11_disjoint_paths",
       {{"n", "10"}, {"warmup", "1"}, {"k-min", "2"}, {"k-max", "2"}, {"pairs", "5"}}},
      {"overhead_accounting",
       {{"n", "10"}, {"rounds", "2"}, {"k-min", "2"}, {"k-max", "2"}}},
      {"ablation_design_choices",
       {{"n", "8"}, {"warmup", "1"}, {"sample", "1"}, {"epochs", "6"}}},
      {"steady_state",
       {{"n", "10"}, {"warmup", "1"}, {"sample", "1"}, {"k", "2"}}},
      {"scale_frontier",
       {{"n-list", "64"}, {"k", "4"}, {"br-sample", "8"}, {"br-landmarks", "8"},
        {"epochs", "1"}, {"score-sources", "4"}, {"coord-warmup", "10"}}},
      {"serve_remote",
       {{"n", "64"}, {"k", "4"}, {"br-sample", "8"}, {"br-landmarks", "8"},
        {"readers", "2"}, {"sources", "4"}, {"duration", "0.2"},
        {"max-epochs", "2"}, {"warmup", "1"}, {"coord-warmup", "10"},
        {"pipeline-depth", "4"}, {"transports", "uds,inproc"},
        {"loops", "1"}}},
  };
  return kOverrides;
}

TEST(ExperimentsSmokeTest, EveryRegisteredExperimentRunsFromItsScenarioFile) {
  for (const auto& experiment : experiments()) {
    const auto it = smoke_overrides().find(experiment.name);
    ASSERT_NE(it, smoke_overrides().end())
        << "experiment '" << experiment.name
        << "' has no smoke overrides; add it to this test";
    ScenarioSpec spec;
    ASSERT_NO_THROW(spec = load_scenario_file(
                        default_scenario_path(experiment.name)))
        << "experiment '" << experiment.name
        << "' ships no scenarios/" << experiment.name << ".scn";
    EXPECT_EQ(spec.experiment, experiment.name);
    spec.name = experiment.name + "_smoke";
    for (const auto& [key, value] : it->second) spec.set(key, value);

    std::ostringstream console_os, json_os;
    ConsoleSink console(console_os);
    JsonLinesSink json(json_os);
    TeeSink tee({&console, &json});
    ASSERT_NO_THROW(run_scenario(spec, tee)) << experiment.name;
    EXPECT_NE(json_os.str().find("\"type\":\"row\""), std::string::npos)
        << experiment.name << " emitted no structured rows";
  }
}

/// Keeps the tables a run emits, by panel.
class TableCollector final : public ResultSink {
 public:
  void begin_scenario(const std::string&, const std::string&,
                      const Params&) override {}
  void section(const std::string&, const std::string&) override {}
  void table(const std::string& panel, const util::Table& t) override {
    tables.emplace(panel, t);
  }
  void row(const std::string&, const std::vector<std::string>&,
           const std::vector<std::string>&) override {}
  void text(const std::string&) override {}

  std::map<std::string, util::Table> tables;
};

TEST(ExperimentsSmokeTest, ScaleFrontierRowPerPolicyAndWorkerCount) {
  // The epoch-scaling scenario on its dense underlay, shrunk and switched
  // to scale mode: list-valued policy and workers give one row each, and
  // the rows of one policy walk one trajectory at every worker count.
  ScenarioSpec spec;
  ASSERT_NO_THROW(spec = load_scenario_file(
                      default_scenario_path("perf_epoch_scaling")));
  EXPECT_EQ(spec.experiment, "scale_frontier");
  for (const auto& [key, value] :
       Params{{"n-list", "12"}, {"policy", "BR,HybridBR"}, {"br-sample", "4"},
              {"br-landmarks", "6"}, {"underlay", "dense"},
              {"workers", "0,1,2"}, {"epochs", "2"}}) {
    spec.set(key, value);
  }
  TableCollector collector;
  ASSERT_NO_THROW(run_scenario(spec, collector));
  ASSERT_EQ(collector.tables.count("scale_frontier"), 1u);
  const auto& table = collector.tables.at("scale_frontier");
  ASSERT_EQ(table.rows(), 6u);

  std::map<std::pair<std::string, std::string>,
           std::map<std::string, std::string>>
      rows;  // (policy, workers) -> column -> cell
  for (const auto& cells : table.cell_rows()) {
    std::map<std::string, std::string> row;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      row[table.column_names()[c]] = cells[c];
    }
    for (const char* column : {"policy", "workers", "host_cpus", "rss_delta_bytes"}) {
      EXPECT_FALSE(row[column].empty()) << column;
    }
    rows[{row["policy"], row["workers"]}] = row;
  }
  for (const std::string policy : {"BR", "HybridBR"}) {
    for (const std::string workers : {"0", "1", "2"}) {
      ASSERT_EQ(rows.count({policy, workers}), 1u) << policy << " @" << workers;
    }
    const auto& inline_row = rows[{policy, "0"}];
    EXPECT_GT(std::stoi(inline_row.at("evaluated")), 0) << policy;
    for (const std::string workers : {"1", "2"}) {
      const auto& row = rows[{policy, workers}];
      for (const char* column :
           {"rewirings", "evaluated", "skipped_evals", "searches_skipped",
            "dirty_nodes", "mean_cost", "unreachable", "probed_pairs"}) {
        EXPECT_EQ(row.at(column), inline_row.at(column))
            << policy << " @" << workers << " " << column;
      }
    }
  }
}

TEST(ExperimentsSmokeTest, CiSmokeSweepScenarioExpandsToFourSteadyStateCells) {
  ScenarioSpec spec;
  ASSERT_NO_THROW(spec = load_scenario_file(
                      default_scenario_path("ci_smoke_sweep")));
  EXPECT_EQ(spec.experiment, "steady_state");
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 4u);  // the CI gate's schema check assumes 4
  for (const auto& cell : cells) EXPECT_TRUE(cell.axes.empty());
}

TEST(ExperimentsSmokeTest, RegistryNamesAreUniqueAndSummarized) {
  std::map<std::string, int> seen;
  for (const auto& experiment : experiments()) {
    EXPECT_FALSE(experiment.name.empty());
    EXPECT_FALSE(experiment.summary.empty()) << experiment.name;
    EXPECT_NE(experiment.run, nullptr) << experiment.name;
    EXPECT_EQ(seen[experiment.name]++, 0)
        << "duplicate experiment name " << experiment.name;
    EXPECT_EQ(find_experiment(experiment.name), &experiment);
  }
  EXPECT_EQ(find_experiment("no_such_experiment"), nullptr);
}

}  // namespace
}  // namespace egoist::exp
