#include "workloads/trace_replay.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/expect.h"

namespace dufp::workloads {
namespace {

bool within(double a, double b, double tol) {
  const double hi = std::max(std::abs(a), std::abs(b));
  if (hi <= 0.0) return true;
  return std::abs(a - b) <= tol * hi;
}

}  // namespace

WorkloadProfile profile_from_trace(const std::vector<TraceSample>& trace,
                                   const ReplayOptions& options,
                                   const std::string& name) {
  if (trace.empty()) {
    throw std::invalid_argument("profile_from_trace: empty trace");
  }
  DUFP_EXPECT(options.merge_tolerance >= 0.0);
  DUFP_EXPECT(options.peak_bw_gbps > 0.0);
  DUFP_EXPECT(options.w_fixed >= 0.0 && options.w_fixed < 1.0);

  // Segment: merge runs of behaviourally similar samples (duration-
  // weighted averages), so a 10k-row trace becomes a handful of phases.
  struct Segment {
    double seconds = 0.0;
    double gflops = 0.0;  // duration-weighted mean
    double gbps = 0.0;
    double cpu_act = 0.0;
    double mem_act = 0.0;
  };
  std::vector<Segment> segments;
  for (const auto& s : trace) {
    const bool mergeable =
        !segments.empty() &&
        within(segments.back().gflops, s.gflops, options.merge_tolerance) &&
        within(segments.back().gbps, s.gbps, options.merge_tolerance);
    if (mergeable) {
      Segment& seg = segments.back();
      const double w_old = seg.seconds;
      const double w_new = s.seconds;
      const double total = w_old + w_new;
      seg.gflops = (seg.gflops * w_old + s.gflops * w_new) / total;
      seg.gbps = (seg.gbps * w_old + s.gbps * w_new) / total;
      seg.cpu_act = (seg.cpu_act * w_old + s.cpu_activity * w_new) / total;
      seg.mem_act = (seg.mem_act * w_old + s.mem_activity * w_new) / total;
      seg.seconds = total;
    } else {
      segments.push_back(Segment{s.seconds, s.gflops, s.gbps,
                                 s.cpu_activity, s.mem_activity});
    }
  }

  // Deduplicate similar segments into shared PhaseSpecs so loops in the
  // application show up as repeated visits of one phase.
  WorkloadProfile w(name, "replayed from trace (" +
                              std::to_string(trace.size()) + " samples)");
  std::vector<std::string> order;
  std::vector<Segment> kinds;
  for (const auto& seg : segments) {
    int kind = -1;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      if (within(kinds[k].gflops, seg.gflops, options.merge_tolerance) &&
          within(kinds[k].gbps, seg.gbps, options.merge_tolerance) &&
          std::abs(kinds[k].seconds - seg.seconds) <=
              options.merge_tolerance *
                  std::max(kinds[k].seconds, seg.seconds)) {
        kind = static_cast<int>(k);
        break;
      }
    }
    if (kind < 0) {
      kinds.push_back(seg);
      kind = static_cast<int>(kinds.size()) - 1;

      PhaseSpec p;
      p.name = "phase" + std::to_string(kind);
      p.nominal_seconds = seg.seconds;
      p.gflops_ref = std::max(seg.gflops, 0.01);
      const double gbps = std::max(seg.gbps, 1e-3);
      p.oi = p.gflops_ref / gbps;
      // Time decomposition heuristic: the memory share follows how close
      // the traffic sits to the machine's peak; the rest is core-bound.
      const double mem_share =
          std::clamp(gbps / options.peak_bw_gbps, 0.0, 1.0);
      const double variable = 1.0 - options.w_fixed;
      p.w_mem = variable * mem_share * 0.9;
      p.w_unc = variable * mem_share * 0.1;
      p.w_cpu = variable - p.w_mem - p.w_unc;
      p.w_fixed = options.w_fixed;
      p.cpu_activity = std::clamp(seg.cpu_act, 0.05, 1.5);
      p.mem_activity = std::clamp(seg.mem_act, 0.0, 1.5);
      w.add_phase(p);
    }
    order.push_back("phase" + std::to_string(kind));
  }
  for (const auto& phase_name : order) w.then(phase_name);
  w.validate();
  return w;
}

}  // namespace dufp::workloads
