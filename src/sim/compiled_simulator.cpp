#include "sim/compiled_simulator.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "support/simd.hpp"

namespace glitchmask::sim {

// Per-ISA engine factories (sim/compiled_engine_impl.h, one TU each).
namespace engine_portable {
std::unique_ptr<CompiledEngineBase> make_engine(
    std::shared_ptr<const CompiledProgram> program, unsigned chunks);
}
#if defined(GLITCHMASK_HAVE_AVX2)
namespace engine_avx2 {
std::unique_ptr<CompiledEngineBase> make_engine(
    std::shared_ptr<const CompiledProgram> program, unsigned chunks);
}
#endif

namespace {

// ----- program fingerprint ----------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv_bytes(std::uint64_t h, const void* data,
                               std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
    return h;
}

template <class T>
inline std::uint64_t fnv_value(std::uint64_t h, const T& v) noexcept {
    return fnv_bytes(h, &v, sizeof(v));
}

std::uint64_t program_key(const netlist::Netlist& nl, const DelayModel& dm,
                          const SimOptions& options) {
    std::uint64_t h = kFnvOffset;
    h = fnv_value(h, nl.size());
    for (CellId id = 0; id < nl.size(); ++id) {
        const netlist::Cell& cell = nl.cell(id);
        h = fnv_value(h, cell.kind);
        h = fnv_value(h, cell.enable);
        h = fnv_value(h, cell.reset);
        h = fnv_value(h, cell.in[0]);
        h = fnv_value(h, cell.in[1]);
        h = fnv_value(h, cell.in[2]);
        h = fnv_value(h, dm.gate_delay(id));
        h = fnv_value(h, dm.wire_delay(id, 0));
        h = fnv_value(h, dm.wire_delay(id, 1));
        h = fnv_value(h, dm.wire_delay(id, 2));
    }
    h = fnv_value(h, dm.clk_to_q());
    h = fnv_value(h, options.inertial_filtering);
    h = fnv_value(h, options.inertial_factor);
    return h;
}

std::shared_ptr<const CompiledProgram> build_program(const netlist::Netlist& nl,
                                                     const DelayModel& dm,
                                                     const SimOptions& options,
                                                     std::uint64_t key) {
    auto prog = std::make_shared<CompiledProgram>();
    CompiledProgram& p = *prog;
    const std::size_t n = nl.size();
    p.key = key;
    p.n_cells = n;
    p.kind.resize(n);
    p.pins.resize(n);
    p.in.assign(n * 3, netlist::kNoNet);
    p.gate_ps.resize(n);
    p.inertial_window.resize(n);
    p.settle_one.assign(n, 0);
    p.fanout_begin.assign(n + 1, 0);
    p.clk_to_q = dm.clk_to_q();
    p.max_ctrl_group = nl.max_ctrl_group();
    p.inertial_filtering = options.inertial_filtering;

    std::uint32_t max_gate = 0;
    std::uint32_t max_wire = 0;
    p.pin_base.assign(n + 1, 0);
    for (CellId id = 0; id < n; ++id) {
        const netlist::Cell& cell = nl.cell(id);
        p.kind[id] = cell.kind;
        const unsigned pins = netlist::pin_count(cell.kind);
        p.pins[id] = static_cast<std::uint8_t>(pins);
        p.pin_base[id + 1] = p.pin_base[id] + pins;
        for (unsigned q = 0; q < pins; ++q) p.in[id * 3 + q] = cell.in[q];
        p.gate_ps[id] = dm.gate_delay(id);
        max_gate = std::max(max_gate, p.gate_ps[id]);
        // Same rounding expression as the scalar engine so the inertial
        // windows agree bit-for-bit.
        p.inertial_window[id] = static_cast<TimePs>(
            options.inertial_factor * static_cast<double>(dm.gate_delay(id)));
        if (cell.kind == netlist::CellKind::Dff)
            p.flops.push_back({id, cell.enable, cell.reset});

        // All-sources-low steady state in creation order (topological for
        // combinational cells) -- identical to the scalar engine's settle.
        std::uint8_t one = 0;
        switch (cell.kind) {
            case netlist::CellKind::Input:
            case netlist::CellKind::Dff:
            case netlist::CellKind::Const0:
                one = 0;
                break;
            case netlist::CellKind::Const1:
                one = 1;
                break;
            default: {
                std::uint64_t a = 0, b = 0, c = 0;
                if (pins > 0) a = p.settle_one[cell.in[0]] ? kAllLanes : 0;
                if (pins > 1) b = p.settle_one[cell.in[1]] ? kAllLanes : 0;
                if (pins > 2) c = p.settle_one[cell.in[2]] ? kAllLanes : 0;
                one = netlist::eval_cell_word(cell.kind, a, b, c) != 0 ? 1 : 0;
                break;
            }
        }
        p.settle_one[id] = one;
    }

    for (CellId id = 0; id < n; ++id)
        p.fanout_begin[id + 1] =
            p.fanout_begin[id] +
            static_cast<std::uint32_t>(nl.fanout(id).size());
    p.fanout.resize(p.fanout_begin[n]);
    for (CellId id = 0; id < n; ++id) {
        std::uint32_t out = p.fanout_begin[id];
        for (const netlist::Sink& sink : nl.fanout(id)) {
            const std::uint32_t wire = dm.wire_delay(sink.cell, sink.pin);
            max_wire = std::max(max_wire, wire);
            p.fanout[out++] = {sink.cell, sink.pin, nl.cell(sink.cell).kind,
                               wire};
        }
    }

    // Ring horizon: every push is relative to the event being processed
    // (or to the clock edge), so the longest offset past `now` is the
    // largest of one wire hop, one gate delay plus slack for the
    // monotonic +1 bump chains, and the clk-to-Q launch.  Events past the
    // horizon (never produced by the clocked drivers) fall back to the
    // overflow heap, so correctness does not depend on this value.
    const std::uint64_t span =
        std::max<std::uint64_t>({max_wire, max_gate + 1024ull, p.clk_to_q});
    p.ring_size = std::bit_ceil(std::max<std::uint64_t>(span, 64u));
    return prog;
}

/// Registry of the programs some engine still holds: keyed lookups share
/// a live program, and a program dies with its last engine, so compiled
/// state never outlives the campaigns using it.
struct ProgramCache {
    std::mutex mutex;
    std::vector<std::pair<std::uint64_t, std::weak_ptr<const CompiledProgram>>>
        entries;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

ProgramCache& program_cache() {
    static ProgramCache cache;
    return cache;
}

}  // namespace

std::shared_ptr<const CompiledProgram> compile_netlist(const netlist::Netlist& nl,
                                                       const DelayModel& dm,
                                                       SimOptions options) {
    if (!nl.frozen())
        throw std::invalid_argument("compile_netlist: netlist not frozen");
    const std::uint64_t key = program_key(nl, dm, options);
    ProgramCache& cache = program_cache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    std::erase_if(cache.entries,
                  [](const auto& entry) { return entry.second.expired(); });
    for (const auto& [entry_key, weak] : cache.entries) {
        if (entry_key != key) continue;
        if (auto hit = weak.lock()) {
            ++cache.hits;
            return hit;
        }
    }
    ++cache.misses;
    auto prog = build_program(nl, dm, options, key);
    cache.entries.emplace_back(key, prog);
    return prog;
}

CompiledCacheStats compiled_program_cache_stats() {
    ProgramCache& cache = program_cache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    std::size_t live = 0;
    for (const auto& entry : cache.entries)
        if (!entry.second.expired()) ++live;
    return CompiledCacheStats{cache.hits, cache.misses, live};
}

void clear_compiled_program_cache() {
    ProgramCache& cache = program_cache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.entries.clear();
    cache.hits = 0;
    cache.misses = 0;
}

// ----- engine dispatch ---------------------------------------------------

std::unique_ptr<CompiledEngineBase> make_compiled_engine(
    std::shared_ptr<const CompiledProgram> program, unsigned chunks) {
#if defined(GLITCHMASK_HAVE_AVX2)
    if (support::active_simd_level() >= support::SimdLevel::kAvx2)
        return engine_avx2::make_engine(std::move(program), chunks);
#endif
    return engine_portable::make_engine(std::move(program), chunks);
}

// ----- CompiledClockedSim ------------------------------------------------

CompiledClockedSim::CompiledClockedSim(const netlist::Netlist& nl,
                                       const DelayModel& dm, unsigned lanes,
                                       ClockConfig clock,
                                       CouplingConfig coupling,
                                       SimOptions options)
    : nl_(nl), clock_(clock) {
    if (coupling.timing_enabled)
        throw std::invalid_argument(
            "CompiledClockedSim: timing coupling makes delays data-dependent; "
            "lanes cannot share a compiled schedule -- use the scalar "
            "EventSimulator");
    if (lanes != 64 && lanes != 128 && lanes != 256 && lanes != 512)
        throw std::invalid_argument(
            "CompiledClockedSim: lanes must be 64, 128, 256 or 512");
    program_ = compile_netlist(nl, dm, options);
    engine_ = make_compiled_engine(program_, lanes / 64u);
    enable_.assign(nl.max_ctrl_group() + 1u, 0);
    reset_.assign(nl.max_ctrl_group() + 1u, 0);
    enable_[netlist::kAlwaysEnabled] = 1;
}

void CompiledClockedSim::set_enable(netlist::CtrlGroup group, bool enabled) {
    if (group == netlist::kAlwaysEnabled)
        throw std::runtime_error("CompiledClockedSim: group 0 is always enabled");
    enable_.at(group) = enabled ? 1 : 0;
}

void CompiledClockedSim::set_reset(netlist::CtrlGroup group, bool asserted) {
    if (group == netlist::kAlwaysEnabled)
        throw std::runtime_error("CompiledClockedSim: group 0 cannot be reset");
    reset_.at(group) = asserted ? 1 : 0;
}

void CompiledClockedSim::set_input_word(NetId input, unsigned chunk,
                                        std::uint64_t values) {
    if (nl_.cell(input).kind != netlist::CellKind::Input)
        throw std::runtime_error(
            "CompiledClockedSim::set_input_word: not a primary input");
    if (chunk >= chunks())
        throw std::invalid_argument(
            "CompiledClockedSim::set_input_word: chunk out of range");
    pending_.push_back({input, static_cast<std::uint8_t>(chunk), values});
}

void CompiledClockedSim::set_input(NetId input, bool value) {
    if (nl_.cell(input).kind != netlist::CellKind::Input)
        throw std::runtime_error(
            "CompiledClockedSim::set_input: not a primary input");
    pending_.push_back({input, 0xFF, value ? kAllLanes : 0});
}

void CompiledClockedSim::step(std::size_t cycles) {
    for (std::size_t n = 0; n < cycles; ++n) {
        const TimePs edge = static_cast<TimePs>(cycle_) * clock_.period_ps;
        engine_->begin_activity_window();
        const TimePs launch = edge + program_->clk_to_q;
        // Flop updates first, pending inputs second: the same seq order
        // as ClockedSim::step, so every lane sees the same source
        // events as its scalar run.
        engine_->sample_flops(enable_.data(), reset_.data(), launch);
        for (const PendingInput& input : pending_) {
            if (input.chunk == 0xFF)
                engine_->drive_all(input.net, input.values != 0, launch);
            else
                engine_->drive_chunk(input.net, input.chunk, input.values,
                                     kAllLanes, launch);
        }
        pending_.clear();
        engine_->run_until(edge + clock_.period_ps);
        ++cycle_;
    }
}

void CompiledClockedSim::restart() {
    engine_->initialize();
    enable_.assign(enable_.size(), 0);
    reset_.assign(reset_.size(), 0);
    enable_[netlist::kAlwaysEnabled] = 1;
    pending_.clear();
    cycle_ = 0;
}

}  // namespace glitchmask::sim
