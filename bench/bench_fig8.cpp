// Figure 8 — load balance: mean and standard deviation of per-processor
// execution times on the 2,895-vertex graph with Init_K = 18, for up to 16
// processors.
//
// Published shape: the standard deviation stays within 10% of the mean run
// time — the centralized dynamic scheduler keeps the threads busy evenly.
//
// Real threads are exercised up to the machine's core count (per-thread
// CPU clocks measure busy work faithfully there); beyond the physical
// cores, oversubscription makes "per-processor time" meaningless, so the
// 2..16-processor series the paper plots is regenerated by the machine
// model replaying the recorded task trace through the paper's centralized
// scheduler (altix::LoadBalancer) — the same substitution DESIGN.md
// documents for all >2p results.  The real driver balances at runtime
// instead: idle workers steal range jobs, counted in the last column.  A
// no-transfers ablation shows the balance is the scheduler's doing, not an
// accident of the workload.

#include <cstdio>

#include "bench/bench_fig_common.h"
#include "parallel/thread_pool.h"
#include "util/cli.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace gsb;
  const util::Cli cli(argc, argv);
  const auto config = bench::BenchConfig::from_cli(cli, /*default_scale=*/0.3);
  const auto workload = bench::myogenic_workload(config);
  bench::print_workload(workload);

  const std::size_t init_k = bench::high_init_ks(workload).front();
  std::printf("Init_K = %zu (paper Init_K = %zu)\n", init_k,
              bench::paper_init_k_for(workload, init_k));

  // --- real threads up to the physical core count ---------------------------
  const std::size_t hw = par::ThreadPool::default_threads();
  std::printf("\nreal threads (up to the %zu physical cores):\n", hw);
  util::TableWriter real_table({"processors", "mean (s)", "stddev (s)",
                                "stddev/mean", "stolen jobs"});
  bool real_balanced = true;
  for (std::size_t p = 2; p <= hw; p *= 2) {
    core::CliqueCounter counter;
    core::ParallelOptions options;
    options.range = core::SizeRange{init_k, 0};
    options.threads = p;
    const auto stats = core::enumerate_maximal_cliques_parallel(
        workload.graph, counter.callback(), options);
    const auto summary = util::summarize(stats.thread_busy_seconds);
    if (summary.cv() > 0.10) real_balanced = false;
    real_table.add_row(
        {util::format("%zu", p), util::format("%.4f", summary.mean()),
         util::format("%.4f", summary.stddev()),
         util::format("%.1f%%", 100.0 * summary.cv()),
         util::format("%llu",
                      static_cast<unsigned long long>(stats.total_transfers))});
  }
  real_table.print();

  // --- machine-model replay for the published 2..16 series -------------------
  const auto run = bench::collect_trace(workload, init_k);
  const altix::AltixSimulator sim(bench::calibrated_model_for(run.stats));
  const std::vector<std::size_t> procs{2, 4, 8, 16};
  std::printf("\n=== Figure 8: per-processor time, machine-model replay ===\n");
  util::TableWriter table({"processors", "mean (s)", "stddev (s)",
                           "stddev/mean"});
  bool balanced = true;
  for (std::size_t p : procs) {
    const auto simulated = sim.simulate(run.stats, p);
    const auto summary = util::summarize(simulated.processor_busy);
    if (summary.cv() > 0.10) balanced = false;
    table.add_row({util::format("%zu", p),
                   util::format("%.4f", summary.mean()),
                   util::format("%.4f", summary.stddev()),
                   util::format("%.1f%%", 100.0 * summary.cv())});
  }
  table.print();
  if (!config.csv_prefix.empty()) {
    table.write_csv(config.csv_prefix + "fig8.csv");
  }

  // --- ablation: scheduler transfers disabled --------------------------------
  std::printf("\nablation — scheduler transfers disabled (static split):\n");
  altix::LoadBalancerConfig off;
  off.enable_transfers = false;
  const altix::AltixSimulator static_sim(bench::calibrated_model_for(run.stats),
                                         off);
  util::TableWriter ablation({"processors", "stddev/mean"});
  for (std::size_t p : procs) {
    const auto simulated = static_sim.simulate(run.stats, p);
    const auto summary = util::summarize(simulated.processor_busy);
    ablation.add_row({util::format("%zu", p),
                      util::format("%.1f%%", 100.0 * summary.cv())});
  }
  ablation.print();

  std::printf("\npaper: 'standard deviations within 10%% of the average run "
              "times' -> %s (real threads: %s)\n",
              balanced ? "reproduced" : "NOT reproduced",
              real_balanced ? "balanced" : "see table");
  return balanced ? 0 : 1;
}
