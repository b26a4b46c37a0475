#include "support/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "support/telemetry.hpp"

namespace glitchmask {

CliOptions parse_cli(int argc, char** argv, bool allow_positional) {
    CliOptions cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--progress") {
            cli.progress = true;
        } else if (arg.rfind("--progress=", 0) == 0) {
            cli.progress = true;
            cli.progress_interval = std::atof(arg.c_str() + 11);
        } else if (arg == "--report" && i + 1 < argc) {
            cli.report_path = argv[++i];
        } else if (arg.rfind("--report=", 0) == 0) {
            cli.report_path = arg.substr(9);
        } else if (arg == "--attribute") {
            cli.attribute = true;
        } else if (arg == "--top-k" && i + 1 < argc) {
            cli.top_k = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (arg.rfind("--top-k=", 0) == 0) {
            cli.top_k = static_cast<std::size_t>(std::atoll(arg.c_str() + 8));
        } else if (allow_positional && (arg.empty() || arg[0] != '-')) {
            cli.positional.push_back(arg);
        } else {
            std::fprintf(
                stderr,
                "unknown option '%s'\n"
                "usage: %s%s [--progress[=seconds]] [--report <path>]"
                " [--attribute] [--top-k <n>]\n",
                arg.c_str(), argv[0], allow_positional ? " [operand...]" : "");
            std::exit(2);
        }
    }
    if (cli.progress)
        telemetry::set_heartbeat_interval(
            cli.progress_interval > 0.0 ? cli.progress_interval : 2.0);
    return cli;
}

}  // namespace glitchmask
