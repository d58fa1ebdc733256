// Churn resilience: HybridBR's donated connectivity backbone (§3.3, §4.4).
//
//   $ ./build/examples/churn_resilience [--n=40] [--k=5] [--churn=0.02]
//
// Deploys BR and HybridBR side by side on one OverlayHost under an
// aggressive ON/OFF churn process (the host's staggered mode: one node
// re-evaluates per T/n seconds, churn events applied in time order) and
// prints each overlay's efficiency over time from epoch-end subscriptions
// — watch HybridBR's donated cycle links keep it connected through
// membership storms that partition plain BR.
#include <iostream>
#include <vector>

#include "churn/churn.hpp"
#include "host/overlay_host.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace egoist;

  const util::Flags flags(argc, argv);
  const auto n = static_cast<std::size_t>(flags.get_int("n", 40));
  const auto k = static_cast<std::size_t>(flags.get_int("k", 5));
  const double churn_target = flags.get_double("churn", 0.02);
  const int epochs = flags.get_int("epochs", 20);
  const auto seed = flags.get_seed("seed", 17);
  flags.finish(
      "churn_resilience: run each policy under ON/OFF churn and compare "
      "node efficiency (paper section 4.4)");

  // ON/OFF schedule calibrated so the measured churn rate lands near the
  // requested target (see scenarios/fig2_churn.scn for the calibration).
  churn::ChurnConfig churn_config;
  churn_config.mean_on_s = 2.0 / churn_target;
  churn_config.mean_off_s = churn_config.mean_on_s / 3.0;
  churn_config.initial_on_fraction = 0.75;
  const churn::ChurnTrace trace(n, epochs * 60.0, seed ^ 0xCCu, churn_config);

  std::cout << "Churn resilience demo: n=" << n << ", k=" << k
            << ", measured churn rate "
            << util::Table::format(trace.churn_rate(), 4) << " (events/s/node)\n\n";

  host::OverlayHost host(n, seed);
  auto deploy = [&](overlay::Policy policy) {
    return host.deploy(host::OverlaySpec()
                           .policy(policy)
                           .k(k)
                           .seed(seed)
                           .donated_links(2)
                           .epoch_period(60.0)
                           .staggered(seed ^ 0x0Du)
                           .churn(trace));
  };
  const auto br = deploy(overlay::Policy::kBestResponse);
  const auto hybrid = deploy(overlay::Policy::kHybridBR);

  // Per-epoch efficiency series, collected as the host drives both
  // overlays through the shared event loop.
  auto mean_efficiency = [&](host::OverlayHandle handle) {
    const auto snapshot = host.snapshot(handle);
    if (snapshot.online_count() < 2) return 0.0;
    return util::Summary::of(snapshot.node_efficiencies()).mean;
  };
  util::Table table({"minute", "online", "BR efficiency", "HybridBR efficiency"});
  std::vector<double> br_series;
  std::vector<std::size_t> online_series;
  const auto sub_br = host.on_epoch_end(br, [&](const host::EpochEvent& event) {
    online_series.push_back(event.online_count);
    br_series.push_back(mean_efficiency(br));
  });
  // HybridBR's epoch ends after BR's at the same timestamps (deployment
  // order), so both series are complete when its subscription fires.
  const auto sub_hybrid =
      host.on_epoch_end(hybrid, [&](const host::EpochEvent& event) {
        table.add_row({std::to_string(event.epoch),
                       std::to_string(online_series.back()),
                       util::Table::format(br_series.back(), 4),
                       util::Table::format(mean_efficiency(hybrid), 4)});
      });

  host.run_epochs(epochs);
  host.unsubscribe(sub_br);
  host.unsubscribe(sub_hybrid);

  table.write_ascii(std::cout);
  std::cout << "\nHybridBR donates 2 of its " << k
            << " links to a backbone cycle that is spliced the moment a\n"
               "node leaves; under heavy churn those redundant routes keep "
               "efficiency up\nwhile plain BR waits for its next wiring "
               "epoch to heal.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
