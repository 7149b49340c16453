// One parallel loop for independent work items.
//
// Its callers (the fault and churn campaigns, the verifier's frontier
// expansion and the ablation benches) run every item into its own
// preallocated slot and merge the slots serially afterwards, so their
// output does not depend on the thread count or the schedule.
#pragma once

#include <cstddef>
#include <functional>

namespace acc {

/// Runs body(i) exactly once for every i in [0, n). With jobs <= 1 the
/// indices run in order on the calling thread; otherwise min(jobs, n)
/// threads take indices from a shared counter. The first exception a body
/// throws is rethrown after every index ran and every thread joined.
void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace acc
