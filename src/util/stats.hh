/**
 * @file
 * Scalar statistics for the benchmark harness.  Distributions
 * live in obs::LatencyHistogram (obs/latency_histogram.hh).
 */

#ifndef IRACC_UTIL_STATS_HH
#define IRACC_UTIL_STATS_HH

#include <vector>

namespace iracc {

/** Geometric mean of a set of strictly positive values. */
double geomean(const std::vector<double> &values);

} // namespace iracc

#endif // IRACC_UTIL_STATS_HH
