/**
 * @file
 * Wall-clock timing helpers for the software baselines and the
 * pipeline stage breakdowns.
 */

#ifndef IRACC_UTIL_TIMER_HH
#define IRACC_UTIL_TIMER_HH

#include <chrono>

namespace iracc {

/** Simple monotonic wall-clock stopwatch. */
class Timer
{
  public:
    Timer() { restart(); }

    /** Reset the start point to now. */
    void restart() { start = Clock::now(); }

    /** @return seconds elapsed since construction or restart(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    }

    /** @return milliseconds elapsed. */
    double ms() const { return seconds() * 1e3; }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start;
};

} // namespace iracc

#endif // IRACC_UTIL_TIMER_HH
