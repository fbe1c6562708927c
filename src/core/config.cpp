#include "core/config.h"

#include <ostream>

#include "exec/registry.h"
#include "exec/schedule.h"
#include "util/contracts.h"
#include "util/parse.h"

namespace quorum::core {

const char* exec_mode_name(exec_mode mode) noexcept {
    switch (mode) {
    case exec_mode::exact:
        return "exact";
    case exec_mode::sampled:
        return "sampled";
    case exec_mode::per_shot:
        return "per_shot";
    case exec_mode::noisy:
        return "noisy";
    }
    return "?";
}

bool parse_exec_mode(std::string_view text, exec_mode& mode) noexcept {
    for (const exec_mode candidate :
         {exec_mode::exact, exec_mode::sampled, exec_mode::per_shot,
          exec_mode::noisy}) {
        if (text == exec_mode_name(candidate)) {
            mode = candidate;
            return true;
        }
    }
    return false;
}

bool parse_detector_flag(util::flag_cursor& args, quorum_config& config) {
    const std::string_view flag = args.flag();
    if (flag == "--groups") {
        args.count(config.ensemble_groups);
    } else if (flag == "--shots") {
        args.count(config.shots);
    } else if (flag == "--qubits") {
        args.count(config.n_qubits);
    } else if (flag == "--rate") {
        args.real(config.estimated_anomaly_rate);
    } else if (flag == "--bucket-prob") {
        args.real(config.bucket_probability);
    } else if (flag == "--seed") {
        args.count(config.seed);
    } else if (flag == "--mode") {
        const std::string_view text = args.value();
        if (!parse_exec_mode(text, config.mode)) {
            args.reject(text, "exact | sampled | per_shot | noisy");
        }
    } else if (flag == "--encoding") {
        const std::string_view text = args.value();
        if (!qml::parse_encoding(text, config.encoding)) {
            args.reject(text, "amplitude | angle");
        }
    } else if (flag == "--backend") {
        config.backend = args.value();
    } else if (flag == "--schedule") {
        const std::string_view text = args.value();
        try {
            (void)exec::parse_schedule_spec(text);
        } catch (const util::contract_error&) {
            args.reject(text, "static | dynamic[:grain]");
        }
        config.schedule = text;
    } else {
        return false;
    }
    return true;
}

void print_detector_flags(std::ostream& out, const quorum_config& defaults) {
    const auto flag = [&out](std::string_view name, std::string_view text,
                             const auto& fallback) {
        out << "  " << name << std::string(22 - name.size(), ' ') << text
            << " (default " << fallback << ")\n";
    };
    flag("--groups N", "ensemble groups", defaults.ensemble_groups);
    flag("--shots N", "shots per circuit", defaults.shots);
    flag("--qubits N", "data-register qubits", defaults.n_qubits);
    flag("--rate R", "estimated anomaly rate", defaults.estimated_anomaly_rate);
    flag("--bucket-prob P", "bucket containment probability",
         defaults.bucket_probability);
    flag("--mode M", "exact | sampled | per_shot | noisy",
         exec_mode_name(defaults.mode));
    flag("--encoding E", "amplitude | angle",
         qml::encoding_name(defaults.encoding));
    flag("--backend B", "auto | NAME | sharded[:NAME] | remote[:NAME]",
         defaults.backend);
    out << std::string(24, ' ') << "registered NAMEs:";
    for (const std::string& name : exec::backend_names()) {
        out << " " << name;
    }
    out << "\n";
    flag("--schedule S", "lane spans: static | dynamic[:grain]",
         defaults.schedule);
    flag("--seed S", "master seed", defaults.seed);
}

const char* feature_strategy_name(feature_strategy s) noexcept {
    switch (s) {
    case feature_strategy::uniform_random:
        return "uniform_random";
    case feature_strategy::top_variance:
        return "top_variance";
    }
    return "?";
}

std::vector<std::size_t>
quorum_config::effective_compression_levels() const {
    if (!compression_levels.empty()) {
        return compression_levels;
    }
    std::vector<std::size_t> levels;
    for (std::size_t k = 1; k < n_qubits; ++k) {
        levels.push_back(k);
    }
    return levels;
}

std::string quorum_config::resolved_backend() const {
    const std::string by_mode =
        mode == exec_mode::noisy ? "density" : "statevector";
    if (backend == "auto") {
        return by_mode;
    }
    if (backend == "sharded" || backend == "sharded:auto") {
        return "sharded:" + by_mode;
    }
    if (backend == "remote" || backend == "remote:auto") {
        return "remote:" + by_mode;
    }
    return backend;
}

exec::engine_config quorum_config::to_engine_config() const {
    exec::engine_config engine;
    switch (mode) {
    case exec_mode::exact:
        engine.sampling_mode = exec::sampling::exact;
        break;
    case exec_mode::sampled:
        engine.sampling_mode = exec::sampling::binomial;
        engine.shots = shots;
        break;
    case exec_mode::per_shot:
        engine.sampling_mode = exec::sampling::per_shot;
        engine.shots = shots;
        break;
    case exec_mode::noisy:
        // The density engine computes the exact noisy distribution; shots
        // (when requested) are emulated with a Binomial draw, exactly as
        // the paper samples its 4096 shots from the Aer distribution.
        engine.sampling_mode =
            shots == 0 ? exec::sampling::exact : exec::sampling::binomial;
        engine.shots = shots;
        engine.noise = noise;
        break;
    }
    engine.shards = shards;
    // Throws contract_error naming the spec on a malformed value — the
    // same construction-time surfacing validate() gives backend specs.
    engine.schedule = exec::parse_schedule_spec(schedule);
    return engine;
}

bool quorum_config::uses_full_circuit() const noexcept {
    // per_shot/noisy have hardware semantics and always run the real
    // 2n+1-qubit circuit; exact/sampled take the register-A analytic
    // shortcut unless explicitly asked for the full circuit.
    return use_full_circuit || mode == exec_mode::per_shot ||
           mode == exec_mode::noisy;
}

void quorum_config::validate() const {
    QUORUM_EXPECTS_MSG(n_qubits >= 2 && n_qubits <= 10,
                       "n_qubits must be in [2, 10]");
    QUORUM_EXPECTS_MSG(ansatz_layers >= 1 && ansatz_layers <= 16,
                       "ansatz_layers must be in [1, 16]");
    QUORUM_EXPECTS_MSG(ensemble_groups >= 1,
                       "need at least one ensemble group");
    QUORUM_EXPECTS_MSG(bucket_probability > 0.0 && bucket_probability < 1.0,
                       "bucket_probability must be in (0, 1)");
    QUORUM_EXPECTS_MSG(estimated_anomaly_rate > 0.0 &&
                           estimated_anomaly_rate < 1.0,
                       "estimated_anomaly_rate must be in (0, 1)");
    if (mode != exec_mode::exact) {
        QUORUM_EXPECTS_MSG(shots >= 1, "sampling modes need shots >= 1");
    }
    for (const std::size_t level : compression_levels) {
        QUORUM_EXPECTS_MSG(level >= 1 && level < n_qubits,
                           "compression levels must be in [1, n_qubits)");
    }
    // Instantiating the backend surfaces unknown names, malformed
    // "sharded:<inner>" spec strings, AND incompatible mode/backend
    // combinations (e.g. per_shot on the density engine) here, at
    // validation time, instead of mid-scoring in a worker thread.
    (void)exec::make_executor(resolved_backend(), to_engine_config());
}

} // namespace quorum::core
