#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "exec/registry.h"
#include "util/contracts.h"

namespace {

using namespace quorum;

TEST(ExecRegistry, BuiltinsAreRegistered) {
    const std::vector<std::string> names = exec::backend_names();
    EXPECT_NE(std::find(names.begin(), names.end(), "statevector"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "density"), names.end());
    EXPECT_TRUE(exec::is_backend_registered("statevector"));
    EXPECT_TRUE(exec::is_backend_registered("density"));
    EXPECT_FALSE(exec::is_backend_registered("warp-drive"));
}

TEST(ExecRegistry, MakeExecutorInstantiatesByName) {
    const std::unique_ptr<exec::executor> engine =
        exec::make_executor("statevector", exec::engine_config{});
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), "statevector");
}

TEST(ExecRegistry, UnknownBackendThrowsWithKnownNames) {
    try {
        (void)exec::make_executor("warp-drive", exec::engine_config{});
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("warp-drive"), std::string::npos);
        EXPECT_NE(what.find("statevector"), std::string::npos);
    }
}

/// A trivial backend: reports a constant. Registering it must make it
/// constructible by name — the plug-in seam future backends use.
class constant_backend final : public exec::executor {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "constant";
    }
    [[nodiscard]] bool
    supports(exec::readout_kind) const noexcept override {
        return true;
    }
    void run_batch(const exec::program&,
                   std::span<const exec::sample> samples,
                   std::span<double> out) const override {
        for (std::size_t i = 0; i < samples.size(); ++i) {
            out[i] = 0.25;
        }
    }
};

TEST(ExecRegistry, CustomBackendsPlugIn) {
    const bool was_new = exec::register_backend(
        "constant", [](const exec::engine_config&) {
            return std::unique_ptr<exec::executor>(new constant_backend());
        });
    EXPECT_TRUE(was_new || exec::is_backend_registered("constant"));
    const std::unique_ptr<exec::executor> engine =
        exec::make_executor("constant", exec::engine_config{});
    EXPECT_EQ(engine->name(), "constant");
    std::vector<double> out(2);
    engine->run_batch(exec::program{}, std::vector<exec::sample>(2), out);
    EXPECT_DOUBLE_EQ(out[0], 0.25);
    EXPECT_DOUBLE_EQ(out[1], 0.25);
}

} // namespace
