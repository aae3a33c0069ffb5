#pragma once

// Host-speed calibration. The benchmark's host is a few vCPUs of a shared
// machine whose speed steps by 15-60 % within minutes as other tenants come
// and go, and a fixed piece of work slows with it. Timing that work beside
// each pass and scaling the pass by it turns the pass's time into the time
// it would take on the reference host, so a run's timings do not depend on
// when in the host's cycle it ran.

namespace pipebench {

/// calibration_s() on the reference host (4 vCPUs, gcc 12, Release) while it
/// ran fast. Timings are reported as measured x kReferenceCalibrationS /
/// calibration_s().
inline constexpr double kReferenceCalibrationS = 0.016;

/// Seconds a fixed piece of work takes on the calling thread now: forward
/// passes of a small dense network (the surrogate's kind of work), then a
/// discrete-event loop over a binary heap with small allocations (the
/// episode engine's kind). The code is the benchmark's own and does not
/// change with the program, so it measures the host alone. About 16 ms.
double calibration_s();

}  // namespace pipebench
