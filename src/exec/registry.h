// Backend registry/factory: execution engines are looked up by name so
// new backends (sharded, GPU, remote, ...) plug in without touching core.
// The built-in "statevector" and "density" backends register themselves on
// first use; external code may add more via register_backend.
#ifndef QUORUM_EXEC_REGISTRY_H
#define QUORUM_EXEC_REGISTRY_H

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/executor.h"

namespace quorum::exec {

/// Creates a backend instance for the given engine parameters.
using backend_factory =
    std::function<std::unique_ptr<executor>(const engine_config&)>;

/// Registers (or replaces) a factory under `name` (a plain name — no ':').
/// Returns true when the name was new, false when an existing registration
/// was replaced. Thread-safe.
bool register_backend(std::string name, backend_factory factory);

/// A parsed backend spec. Specs are either a plain registered name
/// ("statevector") or a composite "sharded:<inner>" / "remote:<inner>"
/// pair, where <inner> is any plain registered name the wrapper backend
/// runs its lanes (in-process shards / worker processes) on.
struct backend_spec {
    std::string name;  ///< base backend name
    std::string inner; ///< inner backend of a composite spec; else empty
};

/// Splits a spec string into (name, inner) and validates its shape:
/// non-empty parts, at most one ':', and only "sharded" and "remote" may
/// carry an inner. Throws util::contract_error on malformed specs. Does
/// NOT check registration — make_executor does.
[[nodiscard]] backend_spec parse_backend_spec(std::string_view spec);

/// True when `name` can be the engine a wrapper runs on its lanes: one
/// non-empty registered-style name that is not itself a wrapper
/// ("remote", "sharded", the serve daemon's "fleet") and has no ':'.
/// The one nesting rule for composite specs, remote/fleet coordinators
/// and the worker's handshake.
[[nodiscard]] bool is_plain_backend_name(std::string_view name);

/// True when `spec` is well-formed and every name in it is registered.
[[nodiscard]] bool is_backend_registered(std::string_view spec);

/// All registered backend names, sorted.
[[nodiscard]] std::vector<std::string> backend_names();

/// Instantiates the backend a spec describes ("sharded:<inner>" wraps the
/// inner backend in the in-process sharded engine, "remote:<inner>" in
/// the multi-process remote engine; bare "sharded"/"remote" wrap
/// "statevector"). Throws util::contract_error (listing the known names)
/// when a name is not registered or the spec is malformed. Note:
/// composite specs are always served by the built-in wrapper engines —
/// re-registering a factory under "sharded"/"remote" affects only the
/// plain name, not "<name>:<inner>" resolution.
[[nodiscard]] std::unique_ptr<executor>
make_executor(std::string_view spec, const engine_config& config);

} // namespace quorum::exec

#endif // QUORUM_EXEC_REGISTRY_H
