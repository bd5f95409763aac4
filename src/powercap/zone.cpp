#include "powercap/zone.h"


#include "common/expect.h"
#include "common/units.h"

namespace dufp::powercap {

using namespace dufp::msr;

PackageZone::PackageZone(msr::MsrDevice& dev) : dev_(dev) {
  units_ = decode_rapl_units(dev_.read(0, kMsrRaplPowerUnit));
}

msr::PowerLimit PackageZone::read_limit() const {
  return decode_power_limit(dev_.read(0, kMsrPkgPowerLimit), units_);
}

void PackageZone::write_limit(const msr::PowerLimit& pl) {
  dev_.write(0, kMsrPkgPowerLimit, encode_power_limit(pl, units_));
}

std::uint64_t PackageZone::power_limit_uw(int constraint) const {
  DUFP_EXPECT(constraint == 0 || constraint == 1);
  const auto pl = read_limit();
  return watts_to_uw(constraint == 0 ? pl.long_term_w : pl.short_term_w);
}

void PackageZone::set_power_limit_uw(int constraint, std::uint64_t uw) {
  DUFP_EXPECT(constraint == 0 || constraint == 1);
  auto pl = read_limit();
  if (constraint == 0) {
    pl.long_term_w = uw_to_watts(uw);
  } else {
    pl.short_term_w = uw_to_watts(uw);
  }
  write_limit(pl);
}

std::uint64_t PackageZone::time_window_us(int constraint) const {
  DUFP_EXPECT(constraint == 0 || constraint == 1);
  const auto pl = read_limit();
  const double s =
      constraint == 0 ? pl.long_term_window_s : pl.short_term_window_s;
  return static_cast<std::uint64_t>(s * 1e6 + 0.5);
}

void PackageZone::set_time_window_us(int constraint, std::uint64_t us) {
  DUFP_EXPECT(constraint == 0 || constraint == 1);
  auto pl = read_limit();
  const double s = static_cast<double>(us) * 1e-6;
  if (constraint == 0) {
    pl.long_term_window_s = s;
  } else {
    pl.short_term_window_s = s;
  }
  write_limit(pl);
}

double PackageZone::power_limit_w(ConstraintId c) const {
  return uw_to_watts(power_limit_uw(static_cast<int>(c)));
}

void PackageZone::set_power_limit_w(ConstraintId c, double watts) {
  DUFP_EXPECT(watts > 0.0);
  set_power_limit_uw(static_cast<int>(c), watts_to_uw(watts));
}

double PackageZone::time_window_s(ConstraintId c) const {
  return static_cast<double>(time_window_us(static_cast<int>(c))) * 1e-6;
}

double PackageZone::tdp_w() const {
  return decode_power_info(dev_.read(0, kMsrPkgPowerInfo), units_).tdp_w;
}

}  // namespace dufp::powercap
