#include "support/runenv.hpp"

#include <ctime>

#include <unistd.h>

#include "glitchmask_build_revision.hpp"  // generated at build time
#include "support/env.hpp"

namespace glitchmask {

std::string git_revision() {
    const std::string pinned = env_string("GLITCHMASK_GIT_REVISION", "");
    if (!pinned.empty()) return pinned;
    return GLITCHMASK_BUILD_REVISION;
}

std::string host_name() {
    const std::string pinned = env_string("GLITCHMASK_HOST", "");
    if (!pinned.empty()) return pinned;
    char buffer[256] = {};
    if (::gethostname(buffer, sizeof buffer - 1) != 0) return "unknown";
    return buffer[0] != '\0' ? std::string(buffer) : std::string("unknown");
}

std::string utc_timestamp() {
    const std::string pinned = env_string("GLITCHMASK_UTC", "");
    if (!pinned.empty()) return pinned;
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    char buffer[32];
    std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", &utc);
    return buffer;
}

}  // namespace glitchmask
