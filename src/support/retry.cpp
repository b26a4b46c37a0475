#include "support/retry.hpp"

#include <cerrno>

#include "support/telemetry.hpp"

namespace glitchmask {

bool errno_transient(int error_number) noexcept {
    switch (error_number) {
        case EINTR:
        case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
        case EWOULDBLOCK:
#endif
        case EIO:
        case EBUSY:
            return true;
        default:
            return false;
    }
}

bool backoff_sleep(unsigned ms, const CancelToken* cancel) noexcept {
    using clock = std::chrono::steady_clock;
    const telemetry::ScopedInterval interval(
        telemetry::Histogram::kRetryBackoffNanos);
    const auto deadline = clock::now() + std::chrono::milliseconds(ms);
    for (;;) {
        if (cancel != nullptr && cancel->requested()) return false;
        const auto now = clock::now();
        if (now >= deadline) return true;
        const auto slice = std::min<clock::duration>(
            deadline - now, std::chrono::milliseconds(2));
        std::this_thread::sleep_for(slice);
    }
}

}  // namespace glitchmask
