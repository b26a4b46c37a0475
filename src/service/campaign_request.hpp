// The service-level campaign request: one JSON-typable description that
// covers all four evaluation drivers.
//
// The daemon (and its state file) needs a uniform job currency.
// CampaignRequest is the union the service accepts over the wire: a kind
// tag, the eval::CampaignSettings every driver config inherits (traces,
// seed, noise, block plan, ...), and the per-kind extras (sequence,
// gadget, DES flavor/key).  Running a request copies its settings into
// the driver's config in one assignment, adds the kind's extras, and
// reads every outcome progress flag from the driver result's
// eval::CampaignSummary.  decode_request() applies the *driver's*
// defaults for absent fields, so a submit line like
// {"op":"submit","kind":"gadget_tvla","gadget":"trichina"} runs exactly
// the campaign run_gadget_tvla would run.
//
// request_fingerprint() reuses the drivers' exported checkpoint
// fingerprints as the dedupe/cache key -- lane width is never part of
// it (scalar and every compiled width are proven bit-identical, so a
// cached result from any width answers all of them) -- and without
// attribution (the service runs statistics-only).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/circuits.hpp"
#include "des/masked_des.hpp"
#include "eval/campaign.hpp"
#include "eval/checkpoint.hpp"
#include "eval/des_experiments.hpp"
#include "eval/gadget_tvla.hpp"
#include "eval/trace_campaign.hpp"
#include "support/json.hpp"

namespace glitchmask::service {

enum class CampaignKind { SequenceTvla, GadgetTvla, DesTvla, MeanPower };

/// Wire name ("sequence_tvla", "gadget_tvla", "des_tvla", "mean_power").
[[nodiscard]] const char* campaign_kind_name(CampaignKind kind) noexcept;
[[nodiscard]] std::optional<CampaignKind> parse_campaign_kind(
    std::string_view name) noexcept;

/// The settings' defaults are per-kind; see default_request.
struct CampaignRequest : eval::CampaignSettings {
    CampaignKind kind = CampaignKind::GadgetTvla;
    /// Scheduling priority: higher runs first; ties run in submit order.
    int priority = 0;

    // SequenceTvla
    core::InputSequence sequence{core::ShareId::X0, core::ShareId::Y0,
                                 core::ShareId::X1, core::ShareId::Y1};
    unsigned replicas = 16;

    // GadgetTvla
    eval::GadgetKind gadget = eval::GadgetKind::Naive;

    // DesTvla / MeanPower
    des::CoreFlavor flavor = des::CoreFlavor::FF;
    bool prng_on = true;
    std::uint64_t fixed_plaintext = 0xDA39A3EE5E6B4B0Dull;
    std::uint64_t key = 0x133457799BBCDFF1ull;
};

/// A request whose unset fields carry the matching driver's defaults.
[[nodiscard]] CampaignRequest default_request(CampaignKind kind);

/// The request's campaign identity -- the service's cache/dedupe key and
/// the fingerprint its spool checkpoints are stamped with.  Cheap: never
/// builds a circuit.
[[nodiscard]] eval::CampaignFingerprint request_fingerprint(
    const CampaignRequest& request);

/// 80 lowercase hex digits of the five fingerprint words -- spool file
/// stem, the wire form of the cache key, and the ledger's history key
/// (delegates to obs::fingerprint_key so all three agree).
[[nodiscard]] std::string fingerprint_hex(
    const eval::CampaignFingerprint& fingerprint);

/// Serializes the request as one JSON object (the state file's and the
/// submit op's schema).
[[nodiscard]] std::string encode_request(const CampaignRequest& request);

/// Builds a request from a parsed JSON object: "kind" selects the driver
/// defaults, every other present member overrides one field.  Throws
/// std::runtime_error naming the offending member.
[[nodiscard]] CampaignRequest decode_request(const JsonValue& json);

/// What a finished campaign hands back to the service: identity, progress
/// flags, and the driver's headline numbers as named metrics.  Small and
/// POD-ish on purpose -- this is what the result cache stores and the
/// protocol serializes.
struct CampaignOutcome {
    eval::CampaignFingerprint fingerprint{};
    std::size_t total_traces = 0;
    std::size_t completed_traces = 0;
    bool cancelled = false;
    bool resumed = false;
    bool checkpoint_degraded = false;
    bool snapshot_discarded = false;
    std::vector<std::pair<std::string, double>> metrics;
};

/// Runs the request's campaign synchronously with the given runtime
/// options (checkpoint path, cancel token, progress observer, degradation
/// policy).  Throws CampaignError on runtime failures the options did not
/// absorb.
[[nodiscard]] CampaignOutcome run_campaign_request(
    const CampaignRequest& request, eval::CampaignRunOptions run);

}  // namespace glitchmask::service
