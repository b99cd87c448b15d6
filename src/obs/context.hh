// Request-scoped correlation context: a process-unique id allocated at
// every entry point (serve request, CLI invocation, batch scenario, DSE
// evaluation, fuzz seed) and carried in a thread-local so that every log
// event, trace span, and crash dump emitted while the work runs can be
// stitched back into one per-request narrative.
//
// Propagation is explicit at thread boundaries: the submitting side
// captures currentCorrelationId() and the worker re-establishes it with
// a CorrelationScope before running the task (TaskPool::submit and
// BatchRunner::forEachIndex both do this), so the id follows the
// request across pools without any global locking — the hot read is one
// thread-local load.
#ifndef OMNISIM_OBS_CONTEXT_HH
#define OMNISIM_OBS_CONTEXT_HH

#include <cstdint>

namespace omnisim {
namespace obs {

/// 0 is reserved for "no context"; real ids start at 1.
using CorrelationId = std::uint64_t;

/// Allocate a fresh process-unique id (atomic increment, never 0).
CorrelationId newCorrelationId();

/// The calling thread's current id; 0 when no scope is active.
CorrelationId currentCorrelationId();

namespace detail {
/// Raw set, returning the previous value. Prefer CorrelationScope.
CorrelationId swapCorrelationId(CorrelationId id);
} // namespace detail

/// RAII guard: installs `id` as the calling thread's correlation id and
/// restores the previous one (supporting nesting — a DSE evaluation
/// inside a serve request keeps the request id when none of its own is
/// allocated, or stacks a child id on top).
class CorrelationScope {
public:
    explicit CorrelationScope(CorrelationId id)
        : prev_(detail::swapCorrelationId(id)) {}
    ~CorrelationScope() { detail::swapCorrelationId(prev_); }
    CorrelationScope(const CorrelationScope &) = delete;
    CorrelationScope &operator=(const CorrelationScope &) = delete;

private:
    CorrelationId prev_;
};

} // namespace obs
} // namespace omnisim

#endif // OMNISIM_OBS_CONTEXT_HH
