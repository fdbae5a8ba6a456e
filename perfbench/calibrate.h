/**
 * @file
 * Host-speed calibration. Other tenants of a shared host slow the
 * simulator down by up to 1.8x, for seconds to minutes at a time, while
 * a register-only loop barely moves: the contention is for the core's
 * and caches' shared resources, which the simulator's branchy,
 * cache-heavy code leans on. The calibration kernel is a fixed,
 * self-contained cache model of the same kind, compiled into the
 * benchmark so that no change to the simulator changes it. Its fastest
 * time in a run tracks how fast the host could go during that run.
 */
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

namespace perfbench {

/**
 * The calibration kernel's fastest time on a quiet host (a 4-vCPU
 * 2.1 GHz Xeon VM). Host times are reported at this reference speed.
 */
constexpr double kReferenceCalibrationSeconds = 0.068;

/**
 * Run the calibration kernel once and return its host seconds: three
 * million lookups of a skewed line stream through a two-level LRU
 * set-associative cache model (32 KiB 8-way over 1 MiB 16-way). Its
 * state lives in static storage, so it neither allocates (the
 * program's allocator state is untouched) nor adds to the peak RSS.
 */
double calibrationSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
