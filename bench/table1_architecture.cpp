// Table I: target architecture characteristics — read back through the
// same MSR/powercap interfaces the runtime uses, not hard-coded, so the
// table doubles as a smoke test of the register plumbing.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "hwmodel/machine_model.h"
#include "msr/sim_msr.h"
#include "powercap/uncore_control.h"
#include "powercap/zone.h"
#include "rapl/rapl_engine.h"

using namespace dufp;

int main() {
  bench::print_banner("Table I: target architecture characteristics",
                      "Table I (Sec. IV-A)");

  hw::MachineConfig machine;
  hw::MachineModel model(machine);
  msr::SimulatedMsr dev(machine.socket.cores);
  rapl::RaplEngine engine(model.socket(0), dev);
  powercap::PackageZone zone(dev);
  powercap::UncoreControl uncore(dev);

  TextTable t({"cores", "uncore frequency (GHz)", "long term (W)",
               "short term (W)"});
  t.add_row({std::to_string(machine.sockets * machine.socket.cores),
             strf("[%.1f-%.1f]", uncore.window_min_mhz() / 1000.0,
                  uncore.window_max_mhz() / 1000.0),
             fmt_double(zone.power_limit_w(powercap::ConstraintId::long_term), 0),
             fmt_double(zone.power_limit_w(powercap::ConstraintId::short_term), 0)});
  t.print(std::cout);

  std::printf("\nPer-socket details (from MSRs):\n");
  TextTable d({"property", "value"});
  d.add_row({"model", machine.socket.model_name});
  d.add_row({"sockets", std::to_string(machine.sockets)});
  d.add_row({"cores/socket", std::to_string(machine.socket.cores)});
  d.add_row({"core clock (all-core max)",
             strf("%.1f GHz", machine.socket.core_max_mhz / 1000.0)});
  d.add_row({"core base clock",
             strf("%.1f GHz", machine.socket.core_base_mhz / 1000.0)});
  d.add_row({"TDP (MSR_PKG_POWER_INFO)", strf("%.0f W", zone.tdp_w())});
  d.add_row({"long-term window",
             strf("%.3f s", zone.time_window_s(powercap::ConstraintId::long_term))});
  d.add_row({"short-term window",
             strf("%.4f s", zone.time_window_s(powercap::ConstraintId::short_term))});
  d.add_row({"uncore step", strf("%.0f MHz", machine.socket.uncore_step_mhz)});
  d.add_row({"cap step (DUFP policy)", "5 W"});
  d.add_row({"minimum cap (DUFP policy)", "65 W"});
  d.print(std::cout);

  std::printf("\nPaper reference: 64 cores, uncore [1.2-2.4] GHz, "
              "long term 125 W, short term 150 W.\n");
  return 0;
}
