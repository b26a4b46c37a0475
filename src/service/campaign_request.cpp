#include "service/campaign_request.hpp"

#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "obs/ledger.hpp"
#include "support/json.hpp"

namespace glitchmask::service {

namespace {

[[noreturn]] void bad_member(const std::string& name, const char* why) {
    throw std::runtime_error("campaign request: member '" + name + "' " + why);
}

std::uint64_t require_u64(const eval::JsonValue& v, const std::string& name) {
    if (v.kind != eval::JsonValue::Kind::kUnsigned)
        bad_member(name, "must be a non-negative integer");
    return v.unsigned_value;
}

double require_number(const eval::JsonValue& v, const std::string& name) {
    if (v.kind != eval::JsonValue::Kind::kUnsigned &&
        v.kind != eval::JsonValue::Kind::kNumber)
        bad_member(name, "must be a number");
    return v.as_number();
}

bool require_bool(const eval::JsonValue& v, const std::string& name) {
    if (v.kind != eval::JsonValue::Kind::kBool)
        bad_member(name, "must be true or false");
    return v.boolean;
}

const std::string& require_string(const eval::JsonValue& v,
                                  const std::string& name) {
    if (v.kind != eval::JsonValue::Kind::kString)
        bad_member(name, "must be a string");
    return v.string;
}

core::InputSequence parse_sequence(const std::string& text) {
    if (text.size() != 4)
        throw std::runtime_error(
            "campaign request: 'sequence' must be 4 digits 0-3 (e.g. "
            "\"0213\")");
    core::InputSequence sequence{};
    bool seen[4] = {};
    for (std::size_t i = 0; i < 4; ++i) {
        const int slot = text[i] - '0';
        if (slot < 0 || slot > 3 || seen[slot])
            throw std::runtime_error(
                "campaign request: 'sequence' must be a permutation of "
                "0123");
        seen[slot] = true;
        sequence[i] = static_cast<core::ShareId>(slot);
    }
    return sequence;
}

std::string sequence_text(const core::InputSequence& sequence) {
    std::string text;
    for (const core::ShareId slot : sequence)
        text += static_cast<char>('0' + static_cast<int>(slot));
    return text;
}

const char* flavor_name(des::CoreFlavor flavor) noexcept {
    switch (flavor) {
        case des::CoreFlavor::FF: return "ff";
        case des::CoreFlavor::PD: return "pd";
        case des::CoreFlavor::DOM: return "dom";
    }
    return "ff";
}

std::optional<des::CoreFlavor> parse_flavor(std::string_view name) noexcept {
    if (name == "ff") return des::CoreFlavor::FF;
    if (name == "pd") return des::CoreFlavor::PD;
    if (name == "dom") return des::CoreFlavor::DOM;
    return std::nullopt;
}

/// `Config` at its defaults with the request's settings and `run`; the
/// caller adds the kind's extras.
template <class Config>
Config driver_config(const CampaignRequest& request,
                     eval::CampaignRunOptions run = {}) {
    Config config;
    static_cast<eval::CampaignSettings&>(config) = request;
    config.run = std::move(run);
    return config;
}

eval::SequenceExperimentConfig sequence_config(
    const CampaignRequest& r, eval::CampaignRunOptions run = {}) {
    auto config =
        driver_config<eval::SequenceExperimentConfig>(r, std::move(run));
    config.replicas = r.replicas;
    return config;
}

eval::GadgetTvlaConfig gadget_config(const CampaignRequest& r,
                                     eval::CampaignRunOptions run = {}) {
    auto config = driver_config<eval::GadgetTvlaConfig>(r, std::move(run));
    config.gadget = r.gadget;
    config.replicas = r.replicas;
    return config;
}

eval::DesTvlaConfig des_config(const CampaignRequest& r,
                               eval::CampaignRunOptions run = {}) {
    auto config = driver_config<eval::DesTvlaConfig>(r, std::move(run));
    config.prng_on = r.prng_on;
    config.fixed_plaintext = r.fixed_plaintext;
    config.key = r.key;
    return config;
}

/// The headline metrics of the two single-gadget TVLA kinds.
template <class Result>
std::vector<std::pair<std::string, double>> first_order_metrics(
    const Result& result) {
    return {
        {"max_abs_t_order1", result.max_abs_t1},
        {"max_abs_t_order2", result.max_abs_t2},
        {"argmax_cycle", static_cast<double>(result.argmax_cycle)},
        {"leaks_first_order", result.leaks_first_order ? 1.0 : 0.0},
    };
}

}  // namespace

const char* campaign_kind_name(CampaignKind kind) noexcept {
    switch (kind) {
        case CampaignKind::SequenceTvla: return "sequence_tvla";
        case CampaignKind::GadgetTvla: return "gadget_tvla";
        case CampaignKind::DesTvla: return "des_tvla";
        case CampaignKind::MeanPower: return "mean_power";
    }
    return "unknown";
}

std::optional<CampaignKind> parse_campaign_kind(std::string_view name) noexcept {
    if (name == "sequence_tvla") return CampaignKind::SequenceTvla;
    if (name == "gadget_tvla") return CampaignKind::GadgetTvla;
    if (name == "des_tvla") return CampaignKind::DesTvla;
    if (name == "mean_power") return CampaignKind::MeanPower;
    return std::nullopt;
}

CampaignRequest default_request(CampaignKind kind) {
    CampaignRequest request;
    request.kind = kind;
    eval::CampaignSettings& settings = request;
    switch (kind) {
        case CampaignKind::SequenceTvla:
            settings = eval::SequenceExperimentConfig{};
            break;
        case CampaignKind::GadgetTvla:
            settings = eval::GadgetTvlaConfig{};
            break;
        case CampaignKind::DesTvla:
            settings = eval::DesTvlaConfig{};
            break;
        case CampaignKind::MeanPower:
            // mean_power_trace has no config; it adds no noise.
            request.traces = 256;
            break;
    }
    return request;
}

eval::CampaignFingerprint request_fingerprint(const CampaignRequest& request) {
    switch (request.kind) {
        case CampaignKind::SequenceTvla:
            return eval::sequence_fingerprint(request.sequence,
                                              sequence_config(request));
        case CampaignKind::GadgetTvla:
            return eval::gadget_fingerprint(gadget_config(request));
        case CampaignKind::DesTvla:
            return eval::des_tvla_fingerprint(
                des_config(request),
                des::MaskedDesCore::total_cycles_for(request.flavor));
        case CampaignKind::MeanPower:
            return eval::mean_power_fingerprint(
                request.traces, request.seed, request.placement_seed,
                des::MaskedDesCore::total_cycles_for(request.flavor));
    }
    throw std::runtime_error("campaign request: unknown kind");
}

std::string fingerprint_hex(const eval::CampaignFingerprint& fingerprint) {
    // One canonical spelling: the ledger's history lookups and the
    // daemon's cache/spool keys must agree on the hex form.
    return obs::fingerprint_key(fingerprint);
}

std::string encode_request(const CampaignRequest& request) {
    JsonWriter w;
    w.begin_object();
    w.member("kind", campaign_kind_name(request.kind));
    w.member("priority", request.priority);
    w.member("traces", request.traces);
    w.member("noise_sigma", request.noise_sigma);
    w.member("seed", request.seed);
    w.member("placement_seed", request.placement_seed);
    w.member("max_test_order", request.max_test_order);
    w.member("block_size", request.block_size);
    w.member("lanes", static_cast<std::uint64_t>(request.lanes));
    w.member("workers", static_cast<std::uint64_t>(request.workers));
    switch (request.kind) {
        case CampaignKind::SequenceTvla:
            w.member("sequence", sequence_text(request.sequence));
            w.member("replicas", static_cast<std::uint64_t>(request.replicas));
            break;
        case CampaignKind::GadgetTvla:
            w.member("gadget", eval::gadget_name(request.gadget));
            w.member("replicas", static_cast<std::uint64_t>(request.replicas));
            break;
        case CampaignKind::DesTvla:
            w.member("flavor", flavor_name(request.flavor));
            w.member("prng_on", request.prng_on);
            w.member("fixed_plaintext", request.fixed_plaintext);
            w.member("key", request.key);
            break;
        case CampaignKind::MeanPower:
            w.member("flavor", flavor_name(request.flavor));
            break;
    }
    w.end_object();
    return w.take();
}

CampaignRequest decode_request(const eval::JsonValue& json) {
    if (json.kind != eval::JsonValue::Kind::kObject)
        throw std::runtime_error("campaign request: expected a JSON object");
    const eval::JsonValue* kind_member = json.find("kind");
    if (kind_member == nullptr)
        throw std::runtime_error("campaign request: missing 'kind'");
    const std::optional<CampaignKind> kind =
        parse_campaign_kind(require_string(*kind_member, "kind"));
    if (!kind)
        throw std::runtime_error("campaign request: unknown kind '" +
                                 kind_member->string + "'");

    CampaignRequest request = default_request(*kind);
    for (const auto& [name, value] : json.object) {
        if (name == "kind" || name == "op" || name == "id") continue;
        if (name == "priority") {
            request.priority = static_cast<int>(require_number(value, name));
        } else if (name == "traces") {
            request.traces = require_u64(value, name);
        } else if (name == "noise_sigma") {
            request.noise_sigma = require_number(value, name);
        } else if (name == "seed") {
            request.seed = require_u64(value, name);
        } else if (name == "placement_seed") {
            request.placement_seed = require_u64(value, name);
        } else if (name == "max_test_order") {
            request.max_test_order =
                static_cast<int>(require_u64(value, name));
        } else if (name == "block_size") {
            request.block_size = require_u64(value, name);
        } else if (name == "lanes") {
            request.lanes = static_cast<unsigned>(require_u64(value, name));
        } else if (name == "workers") {
            request.workers = static_cast<unsigned>(require_u64(value, name));
        } else if (name == "sequence") {
            request.sequence = parse_sequence(require_string(value, name));
        } else if (name == "replicas") {
            request.replicas = static_cast<unsigned>(require_u64(value, name));
        } else if (name == "gadget") {
            const std::optional<eval::GadgetKind> gadget =
                eval::parse_gadget(require_string(value, name));
            if (!gadget) bad_member(name, "names no known gadget");
            request.gadget = *gadget;
        } else if (name == "flavor") {
            const std::optional<des::CoreFlavor> flavor =
                parse_flavor(require_string(value, name));
            if (!flavor) bad_member(name, "must be ff, pd or dom");
            request.flavor = *flavor;
        } else if (name == "prng_on") {
            request.prng_on = require_bool(value, name);
        } else if (name == "fixed_plaintext") {
            request.fixed_plaintext = require_u64(value, name);
        } else if (name == "key") {
            request.key = require_u64(value, name);
        } else {
            bad_member(name, "is not a known request field");
        }
    }
    return request;
}

CampaignOutcome run_campaign_request(const CampaignRequest& request,
                                     eval::CampaignRunOptions run) {
    CampaignOutcome outcome;
    outcome.fingerprint = request_fingerprint(request);
    outcome.total_traces = request.traces;
    eval::CampaignProgress progress;
    switch (request.kind) {
        case CampaignKind::SequenceTvla: {
            const eval::SequenceLeakResult result =
                eval::run_sequence_experiment(
                    request.sequence, sequence_config(request, std::move(run)));
            progress = result.progress;
            outcome.metrics = first_order_metrics(result);
            break;
        }
        case CampaignKind::GadgetTvla: {
            const eval::GadgetTvlaResult result =
                eval::run_gadget_tvla(gadget_config(request, std::move(run)));
            progress = result.progress;
            outcome.metrics = first_order_metrics(result);
            break;
        }
        case CampaignKind::DesTvla: {
            const des::MaskedDesCore core(
                des::MaskedDesOptions{.flavor = request.flavor});
            const eval::DesTvlaResult result = eval::run_des_tvla(
                core, des_config(request, std::move(run)));
            progress = result.progress;
            outcome.metrics = {
                {"samples", static_cast<double>(result.samples)},
                {"toggles", static_cast<double>(result.toggles)},
            };
            for (int order = 1;
                 order <= request.max_test_order && order <= 3; ++order) {
                char name[32];
                std::snprintf(name, sizeof name, "max_abs_t_order%d", order);
                outcome.metrics.emplace_back(
                    name, result.max_abs_t[static_cast<std::size_t>(order)]);
            }
            break;
        }
        case CampaignKind::MeanPower: {
            const des::MaskedDesCore core(
                des::MaskedDesOptions{.flavor = request.flavor});
            const eval::MeanPowerResult result = eval::mean_power_trace(
                core, request.traces, request.seed, request.placement_seed,
                request.workers, request.lanes, run);
            progress = result.progress;
            double sum = 0.0, peak = 0.0;
            for (const double v : result.mean) {
                sum += v;
                if (v > peak) peak = v;
            }
            outcome.metrics = {
                {"samples", static_cast<double>(result.mean.size())},
                {"mean_power",
                 result.mean.empty() ? 0.0 : sum / result.mean.size()},
                {"peak_power", peak},
            };
            break;
        }
    }
    outcome.completed_traces = progress.completed_traces;
    outcome.cancelled = progress.cancelled;
    outcome.resumed = progress.resumed;
    outcome.checkpoint_degraded = progress.checkpoint_degraded;
    outcome.snapshot_discarded = progress.snapshot_discarded;
    return outcome;
}

}  // namespace glitchmask::service
