/**
 * @file
 * SIGPROF sampling profiler for the benchmark's traced run.
 *
 * Every profiling-timer tick (process CPU time) records the
 * interrupted PC and the return addresses above it. Only frames inside
 * the benchmark executable are kept, as offsets from its load address,
 * so the debug line table (addr2line) can map them to source files. A
 * sample whose leaf lies outside the executable (libc's memset and
 * malloc, the vdso) keeps its callers, so it is charged to the nearest
 * caller frame in the binary.
 */

#ifndef MCBENCH_SAMPLER_H
#define MCBENCH_SAMPLER_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace mcbench {

/**
 * The process's one sampler: the signal handler writes through a
 * global pointer to it, so at most one may exist at a time.
 */
class Sampler
{
  public:
    /** Frames kept per sample, leaf first. */
    static constexpr int kMaxFrames = 24;

    /** Preallocates room for @p capacity samples. */
    explicit Sampler(std::size_t capacity);
    /** Disarms the timer and restores the previous SIGPROF action. */
    ~Sampler();

    Sampler(const Sampler&) = delete;
    Sampler& operator=(const Sampler&) = delete;

    /** Arm the timer: one sample per @p interval_us of CPU time. */
    void start(int interval_us);
    /** Disarm the timer. */
    void stop();

    /** Samples kept; ticks that find the buffer full are ignored. */
    std::size_t samples() const;

    /**
     * Write one line per kept sample: "L" when the leaf is in the
     * executable, "C" when it was charged to a caller, then the
     * in-executable frames as hex offsets, leaf first. Caller frames
     * are return addresses minus one, so they resolve to the call.
     * @return false if the file cannot be written.
     */
    bool write(const std::string& path) const;

    struct State;

  private:
    std::unique_ptr<State> state_;
};

} // namespace mcbench

#endif // MCBENCH_SAMPLER_H
