// Peer-dynamics scenario (the paper's "adaptive to peer dynamics" design
// goal): GossipTrust keeps aggregating while peers join and leave between
// aggregation cycles and gossip messages are lost on flaky links.
//
//   $ ./churn_resilience [n] [churn_pct_per_cycle]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "baseline/power_iteration.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "graph/topology.hpp"
#include "overlay/overlay.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

using namespace gt;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 300;
  const double churn = argc > 2 ? std::strtod(argv[2], nullptr) / 100.0 : 0.05;

  Rng rng(21);
  overlay::OverlayManager om(graph::make_gnutella_like(n, rng));
  trust::FeedbackLedger ledger(n);
  trust::FeedbackGenConfig gen;
  gen.n = n;
  gen.d_max = std::min<std::size_t>(200, n / 2);
  gen.d_avg = 20.0;
  const auto quality = trust::draw_service_qualities(n, n / 10, rng);
  trust::generate_honest_feedback(ledger, quality, gen, rng);
  const auto s = ledger.normalized_matrix();
  const auto exact = baseline::power_iteration(s, 0.15, 0.01).scores;

  core::GossipTrustConfig cfg;
  cfg.neighbors_only = true;   // gossip restricted to live overlay links
  cfg.loss_probability = 0.05; // 5% of gossip messages vanish in flight
  core::GossipTrustEngine engine(n, cfg);
  auto v = engine.initial_scores();
  std::vector<core::NodeId> power;
  Rng grng(22);

  std::printf("%zu peers, %.0f%% churn per cycle, 5%% gossip message loss, "
              "neighbors-only gossip\n\n",
              n, churn * 100);
  Table table("Aggregation under churn");
  table.set_header({"cycle", "alive", "gossip steps", "converged", "msgs lost",
                    "tau vs exact"});
  for (int cycle = 0; cycle < 10; ++cycle) {
    std::vector<std::uint8_t> alive(n, 0);
    for (const auto a : om.alive_nodes()) alive[a] = 1;
    const auto stats =
        engine.run_cycle(s, v, power, grng, &om.topology(), &alive);
    table.add_row({cell(static_cast<std::size_t>(cycle)), cell(om.alive_count()),
                   cell(stats.gossip_steps),
                   stats.gossip_converged ? "yes" : "no",
                   cell(static_cast<std::size_t>(stats.messages_lost)),
                   cell(kendall_tau(exact, v), 3)});
    om.churn_step(churn, 0.5, 3, grng);
  }
  table.print(std::cout);

  std::printf("\nfinal ranking agreement with the centralized computation: "
              "tau = %.3f\n",
              kendall_tau(exact, v));
  std::printf("(scores of currently-departed peers read as 0; ranking is over "
              "all %zu ids)\n", n);
  return 0;
}
