#include "exec/remote_backend.h"

#include <utility>

#include "exec/process_transport.h"
#include "exec/registry.h"
#include "util/contracts.h"

namespace quorum::exec {

namespace {

/// Validates and instantiates the local probe of the inner backend: one
/// plain registered name (composite specs cannot nest), instantiated so
/// unknown names and incompatible mode/backend pairs fail at construction
/// — i.e. at config-validation time — not inside a worker.
std::unique_ptr<executor> make_probe(const engine_config& config,
                                     const std::string& inner) {
    QUORUM_EXPECTS_MSG(is_plain_backend_name(inner),
                       "the remote backend wraps one plain inner backend "
                       "name (no nesting)");
    return make_executor(inner, config);
}

} // namespace

remote_backend::remote_backend(const engine_config& config,
                               const std::string& inner)
    : remote_backend(config, inner, process_transport_factory()) {}

remote_backend::remote_backend(const engine_config& config,
                               const std::string& inner,
                               transport_factory factory)
    : spec_("remote:" + inner),
      workers_(resolve_lane_count(config.shards, max_workers)),
      factory_(std::move(factory)),
      probe_(make_probe(config, inner)) {
    QUORUM_EXPECTS_MSG(static_cast<bool>(factory_),
                       "remote backend needs a transport factory");
    fleet_.inner = inner;
    fleet_.engine = config;
    // A dead worker is respawned once before its lane gives up.
    fleet_.rejoin_attempts = 1;
    fleet_.rejoin_delay_ms = 0;
}

const fleet_executor& remote_backend::engine() const {
    std::call_once(built_, [this] {
        auto fleet = std::make_shared<worker_fleet>(fleet_);
        for (std::size_t k = 0; k < workers_; ++k) {
            fleet->add_factory_lane(factory_, "remote #" + std::to_string(k));
        }
        fleet->wait_for_handshakes();
        engine_ = std::make_unique<fleet_executor>(std::move(fleet), workers_);
    });
    return *engine_;
}

void remote_backend::run_batch(const program& prog,
                               std::span<const sample> samples,
                               std::span<double> out) const {
    if (samples.empty()) {
        validate_batch(prog, samples, out,
                       fleet_.engine.sampling_mode != sampling::exact);
        return;
    }
    engine().run_batch(prog, samples, out);
}

void remote_backend::run_batch_levels(std::span<const program> levels,
                                      std::span<const sample> samples,
                                      std::span<double> out) const {
    if (samples.empty()) {
        validate_level_batch(levels, samples, out,
                             fleet_.engine.sampling_mode != sampling::exact);
        return;
    }
    engine().run_batch_levels(levels, samples, out);
}

} // namespace quorum::exec
