// A fixed amount of reference work, shaped like the sync workloads' hot
// path: forward, backward and Adam steps of a Table I sized MLP over a
// batch, in double precision with fresh allocations, plus a scalar libm
// recurrence. It is compiled from the benchmark's own sources, so changes
// to the program do not move it; run next to a repetition on the same CPU,
// it measures how fast that CPU was at that moment.
#pragma once

namespace fedbench {

/// Own time (wall minus CPU wait) of one pass of the reference work, s.
double calibration_s();

/// The calibration time that defines the reference CPU speed at which the
/// sync workloads report their times and rates. On a 4-vCPU Xeon VM
/// (GCC 12.2, Release) on a shared host, one pass took 17 to 25 ms.
inline constexpr double kReferenceCalibrationS = 0.020;

/// `own_s`, measured on a CPU whose calibration took `calibration_s`,
/// scaled to the reference CPU speed.
inline double at_reference_speed(double own_s, double calibration_s) {
  return own_s * kReferenceCalibrationS / calibration_s;
}

}  // namespace fedbench
