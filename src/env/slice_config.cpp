#include "env/slice_config.hpp"

#include <algorithm>
#include <stdexcept>

namespace atlas::env {

bo::BoxSpace SliceConfig::space() {
  return bo::BoxSpace(
      {"bandwidth_ul", "bandwidth_dl", "mcs_offset_ul", "mcs_offset_dl", "backhaul_bw",
       "cpu_ratio"},
      {0.0, 0.0, 0.0, 0.0, 0.0, 0.0}, {50.0, 50.0, 10.0, 10.0, 100.0, 1.0});
}

atlas::math::Vec SliceConfig::to_vec() const {
  return {bandwidth_ul, bandwidth_dl, mcs_offset_ul, mcs_offset_dl, backhaul_mbps, cpu_ratio};
}

SliceConfig SliceConfig::from_vec(const atlas::math::Vec& v) {
  if (v.size() != 6) throw std::invalid_argument("SliceConfig::from_vec: need 6 dims");
  return from_vec(v.data());
}

SliceConfig SliceConfig::from_vec(const double* v) {
  SliceConfig c;
  c.bandwidth_ul = v[0];
  c.bandwidth_dl = v[1];
  c.mcs_offset_ul = v[2];
  c.mcs_offset_dl = v[3];
  c.backhaul_mbps = v[4];
  c.cpu_ratio = v[5];
  return c;
}

double SliceConfig::resource_usage() const {
  const SliceConfig c = clamped();
  return (c.bandwidth_ul / 50.0 + c.bandwidth_dl / 50.0 + c.mcs_offset_ul / 10.0 +
          c.mcs_offset_dl / 10.0 + c.backhaul_mbps / 100.0 + c.cpu_ratio / 1.0) /
         6.0;
}

SliceConfig SliceConfig::clamped() const {
  SliceConfig c = *this;
  c.bandwidth_ul = std::clamp(c.bandwidth_ul, kMinUlPrbs, 50.0);
  c.bandwidth_dl = std::clamp(c.bandwidth_dl, kMinDlPrbs, 50.0);
  c.mcs_offset_ul = std::clamp(c.mcs_offset_ul, 0.0, 10.0);
  c.mcs_offset_dl = std::clamp(c.mcs_offset_dl, 0.0, 10.0);
  c.backhaul_mbps = std::clamp(c.backhaul_mbps, 0.0, 100.0);
  c.cpu_ratio = std::clamp(c.cpu_ratio, 0.0, 1.0);
  return c;
}

}  // namespace atlas::env
