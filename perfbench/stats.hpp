/**
 * @file
 * Summary statistics of the benchmark: the median, and the tail rule —
 * the highest percentile that still has at least ten samples beyond it.
 */
#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond the reported tail value. */
inline constexpr size_t kTailBeyond = 10;

/** Median (mean of the two middle samples for an even count); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/** The tail value with how it was chosen. */
struct Tail
{
    double value = 0.0;

    /** Share of samples at or below the value, in percent. */
    double percentile = 0.0;

    /** Samples strictly after the value in sorted order. */
    size_t beyond = 0;

    size_t samples = 0;
};

/**
 * Index, in ascending order, of the highest sample with at least
 * kTailBeyond samples after it. With fewer than kTailBeyond + 1 samples
 * no index qualifies and the maximum is used; Tail::beyond then shows
 * that the rule was not met.
 */
inline size_t
tailIndex(size_t n)
{
    return n > kTailBeyond ? n - 1 - kTailBeyond : (n == 0 ? 0 : n - 1);
}

inline Tail
tail(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const size_t i = tailIndex(v.size());
    t.value = v[i];
    t.beyond = v.size() - 1 - i;
    t.percentile = 100.0 * static_cast<double>(i + 1) /
                   static_cast<double>(v.size());
    return t;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
