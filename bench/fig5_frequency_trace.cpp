// Fig. 5: measured core frequency for CG at 10 % tolerated slowdown, DUF
// vs DUFP.  With uncore scaling alone the core clock sits at the 2.8 GHz
// all-core maximum for most of the run; adding dynamic capping pulls the
// average down to ~2.5 GHz — the mechanism behind DUFP's extra power
// savings (Sec. V-E).
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "sim/trace.h"

using namespace dufp;

namespace {

struct TraceSummary {
  RunningStats freq_ghz;
  double fraction_at_max = 0.0;
};

TraceSummary run_with_trace(const std::string& policy,
                            const std::string& csv_path) {
  const auto& cg = workloads::profile(workloads::AppId::cg);
  harness::RunConfig cfg = harness::default_run_config(cg);
  cfg.seed = 105;
  cfg.policy_name = policy;
  cfg.tolerated_slowdown = 0.10;

  sim::VectorTraceSink sink(/*decimation=*/10);  // 10 ms resolution
  cfg.trace = &sink;
  harness::run_once(cfg);

  // Persist the (core 0) trace for plotting.
  CsvWriter csv(csv_path);
  csv.write_row({"time_s", "core_mhz", "uncore_mhz", "cap_long_w",
                 "pkg_power_w"});
  TraceSummary out;
  long at_max = 0;
  for (const auto& e : sink.entries()) {
    const auto& r = e.sockets[0];
    csv.write_row({fmt_double(e.time.seconds(), 3), fmt_double(r.core_mhz, 0),
                   fmt_double(r.uncore_mhz, 0), fmt_double(r.cap_long_w, 1),
                   fmt_double(r.pkg_power_w, 2)});
    out.freq_ghz.add(r.core_mhz / 1000.0);
    if (r.core_mhz >= 2800.0f - 1.0f) ++at_max;
  }
  out.fraction_at_max =
      static_cast<double>(at_max) / static_cast<double>(sink.entries().size());
  return out;
}

}  // namespace

int main() {
  bench::print_banner(
      "Fig. 5: core frequency behaviour, CG @ 10 % tolerated slowdown",
      "Fig. 5 (Sec. V-E)");

  harness::note_progress("DUF trace");
  const auto duf = run_with_trace("DUF", bench::out_path("fig5_duf_trace.csv"));
  harness::note_progress("DUFP trace");
  const auto dufp =
      run_with_trace("DUFP", bench::out_path("fig5_dufp_trace.csv"));

  TextTable t({"configuration", "avg frequency (GHz)", "min (GHz)",
               "time at 2.8 GHz max (%)"});
  t.add_row({"DUF", fmt_double(duf.freq_ghz.mean(), 2),
             fmt_double(duf.freq_ghz.min(), 2),
             fmt_double(duf.fraction_at_max * 100.0, 1)});
  t.add_row({"DUFP", fmt_double(dufp.freq_ghz.mean(), 2),
             fmt_double(dufp.freq_ghz.min(), 2),
             fmt_double(dufp.fraction_at_max * 100.0, 1)});
  t.print(std::cout);

  std::printf(
      "\nPaper: with DUF the frequency is at the 2.8 GHz all-core maximum\n"
      "for the majority of the execution; with DUFP the average observed\n"
      "frequency drops to ~2.5 GHz.\n");
  std::printf(
      "Traces written to %s / %s (10 ms resolution, socket 0).\n",
      bench::out_path("fig5_duf_trace.csv").c_str(),
      bench::out_path("fig5_dufp_trace.csv").c_str());
  return 0;
}
