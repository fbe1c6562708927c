// serve_open: a real quorum_serve daemon with a two-worker fleet, driven
// by one generator process over at most four QSRV1 connections.
//
// After set-up and a short warm-up, an untraced run repeats rounds of
// three segments:
//   capacity  closed loop, every connection sends back to back; the
//             completed rate is the throughput figure;
//   low, high open loop on a precomputed Poisson schedule at fixed
//             offered rates; the schedule never slows when the daemon
//             does, and each request is timed from when it was due.
// Every reply must be IEEE == to the in-process detector's scores.
//
// The daemon runs in its own process group. It is stopped, together
// with every worker it forked, on every exit path: normal return,
// exception, and SIGINT/SIGTERM (a handler kills the group). This
// process is made a child subreaper so the workers, orphaned when the
// daemon dies, are reaped here and the run ends with none alive.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.h"
#include "core/quorum.h"
#include "data/generators.h"
#include "exec/fleet.h"
#include "exec/process_transport.h"
#include "exec/registry.h"
#include "exec/serve_client.h"
#include "metrics/roc.h"
#include "recompose.h"
#include "trace.h"
#include "util/net.h"
#include "util/rng.h"

namespace perfbench {

namespace core = quorum::core;
namespace data = quorum::data;
namespace exec = quorum::exec;
namespace util = quorum::util;

namespace {

// --- configuration (pinned; every value is printed in the details) -----
constexpr std::size_t daemon_workers = 2;
constexpr std::size_t daemon_threads = 1;
constexpr const char* daemon_schedule = "static";
constexpr std::size_t request_groups = 4;
constexpr std::size_t request_rows = 24;
constexpr std::size_t request_anomalies = 2;
constexpr std::size_t request_features = 8;
constexpr std::size_t request_pool = 256;
/// Generator connections (one thread each); at most nproc.
constexpr std::size_t connections = 4;
/// Offered rates of the open-loop phases, requests per second. On a
/// 4-vCPU KVM guest the capacity phase ranged from ~280 to ~900 req/s,
/// so `high` stays below the knee even when the host is slow.
constexpr double rate_low = 30.0;
constexpr double rate_high = 100.0;
/// A run repeats rounds of a capacity, a low and a high segment; the
/// shares split each round.
constexpr double round_s = 2.5;
constexpr double share_capacity = 0.3;
constexpr double share_low = 0.2;
constexpr double share_high = 0.5;
/// Window of the capacity phase's completion rates.
constexpr double capacity_window_s = 0.1;
constexpr std::size_t warmup_requests = 64;
/// Requests a traced run times through each path.
constexpr std::size_t traced_requests = 64;
constexpr int reply_timeout_ms = 10000;

// --- daemon process ---------------------------------------------------

/// Process groups of live daemons, for the signal handler.
constexpr int max_groups = 8;
volatile std::sig_atomic_t live_groups[max_groups] = {};

extern "C" void kill_daemons_and_exit(int signo) {
    for (int i = 0; i < max_groups; ++i) {
        if (live_groups[i] > 0) {
            ::kill(-static_cast<pid_t>(live_groups[i]), SIGKILL);
        }
    }
    // Reap the daemons and, as subreaper, the workers they leave behind.
    for (int i = 0; i < max_groups; ++i) {
        if (live_groups[i] > 0) {
            while (::waitpid(-static_cast<pid_t>(live_groups[i]), nullptr,
                             0) > 0) {
            }
        }
    }
    ::_exit(128 + signo);
}

void install_cleanup_handlers() {
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
    struct sigaction action {};
    action.sa_handler = kill_daemons_and_exit;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGHUP, &action, nullptr);
    // A daemon that dies mid-request must surface as a failed request,
    // not kill the generator.
    std::signal(SIGPIPE, SIG_IGN);
}

std::string sibling_binary(const char* name) {
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0) {
        throw std::runtime_error("cannot resolve /proc/self/exe");
    }
    std::string path(exe, static_cast<std::size_t>(n));
    path.resize(path.rfind('/') + 1);
    return path + name;
}

/// One quorum_serve process (and, through its process group, the
/// workers it forks). The destructor stops and reaps all of them.
class daemon_process {
public:
    daemon_process(const std::vector<std::string>& args, double& setup_s) {
        const std::string binary = sibling_binary("quorum_serve");
        std::vector<char*> argv;
        argv.push_back(const_cast<char*>(binary.c_str()));
        for (const std::string& a : args) {
            argv.push_back(const_cast<char*>(a.c_str()));
        }
        argv.push_back(nullptr);
        int out[2];
        if (::pipe2(out, O_CLOEXEC) != 0) {
            throw std::runtime_error("pipe failed");
        }
        const auto start = clock::now();
        pid_ = ::fork();
        if (pid_ < 0) {
            throw std::runtime_error("fork failed");
        }
        if (pid_ == 0) {
            ::setpgid(0, 0);
            ::dup2(out[1], STDOUT_FILENO);
            const int devnull = ::open("/dev/null", O_WRONLY);
            if (devnull >= 0) {
                ::dup2(devnull, STDERR_FILENO);
            }
            ::execv(binary.c_str(), argv.data());
            ::_exit(127);
        }
        // Set the group from both sides so it exists before either runs on.
        ::setpgid(pid_, pid_);
        register_group();
        ::close(out[1]);
        out_fd_ = out[0];
        port_ = wait_for_serving();
        setup_s = seconds_since(start);
    }

    ~daemon_process() { stop(); }
    daemon_process(const daemon_process&) = delete;
    daemon_process& operator=(const daemon_process&) = delete;

    [[nodiscard]] util::endpoint endpoint() const {
        return util::endpoint{"127.0.0.1", port_};
    }

    /// SIGTERM to the whole group, then reap the daemon and every
    /// orphaned worker. Returns true when no process of the group is
    /// left.
    bool stop() {
        if (pid_ <= 0) {
            return true;
        }
        const pid_t group = pid_;
        ::kill(-group, SIGTERM);
        bool gone = reap_group(group, 5.0);
        if (!gone) {
            ::kill(-group, SIGKILL);
            gone = reap_group(group, 5.0);
        }
        unregister_group();
        if (out_fd_ >= 0) {
            ::close(out_fd_);
            out_fd_ = -1;
        }
        pid_ = -1;
        return gone;
    }

private:
    static bool reap_group(pid_t group, double timeout_s) {
        const auto start = clock::now();
        while (seconds_since(start) < timeout_s) {
            int status = 0;
            while (::waitpid(-group, &status, WNOHANG) > 0) {
            }
            if (::kill(-group, 0) != 0 && errno == ESRCH) {
                return true;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return false;
    }

    void register_group() {
        for (int i = 0; i < max_groups; ++i) {
            if (live_groups[i] == 0) {
                live_groups[i] = static_cast<std::sig_atomic_t>(pid_);
                return;
            }
        }
    }
    void unregister_group() {
        for (int i = 0; i < max_groups; ++i) {
            if (live_groups[i] == static_cast<std::sig_atomic_t>(pid_)) {
                live_groups[i] = 0;
            }
        }
    }

    /// Reads the daemon's stdout until "serving on host:port" (printed
    /// only after every worker joined). Throws on exit or timeout.
    std::uint16_t wait_for_serving() {
        std::string buffer;
        const auto start = clock::now();
        while (seconds_since(start) < 30.0) {
            pollfd p{out_fd_, POLLIN, 0};
            if (::poll(&p, 1, 100) <= 0) {
                continue;
            }
            char chunk[512];
            const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
            if (n <= 0) {
                throw std::runtime_error("quorum_serve exited during start");
            }
            buffer.append(chunk, static_cast<std::size_t>(n));
            const std::string marker = "serving on 127.0.0.1:";
            const std::size_t at = buffer.find(marker);
            if (at != std::string::npos &&
                buffer.find(' ', at + marker.size()) != std::string::npos) {
                return static_cast<std::uint16_t>(
                    std::stoul(buffer.substr(at + marker.size())));
            }
        }
        throw std::runtime_error("quorum_serve did not start in 30 s");
    }

    pid_t pid_ = -1;
    int out_fd_ = -1;
    std::uint16_t port_ = 0;
};

// --- requests and the in-process oracle -------------------------------

core::quorum_config request_config() {
    core::quorum_config config;
    config.mode = core::exec_mode::sampled;
    config.shots = 4096;
    config.ensemble_groups = request_groups;
    config.estimated_anomaly_rate =
        static_cast<double>(request_anomalies) /
        static_cast<double>(request_rows);
    config.bucket_probability = 0.75;
    config.backend = "statevector";
    config.threads = daemon_threads;
    config.schedule = daemon_schedule;
    return config;
}

std::vector<std::string> daemon_args(const core::quorum_config& config) {
    return {"--workers",  std::to_string(daemon_workers),
            "--threads",  std::to_string(daemon_threads),
            "--schedule", daemon_schedule,
            "--backend",  "statevector",
            "--mode",     "sampled",
            "--groups",   std::to_string(config.ensemble_groups),
            "--shots",    std::to_string(config.shots),
            "--rate",     exec::serve_format_double(
                              config.estimated_anomaly_rate),
            "--bucket-prob",
            exec::serve_format_double(config.bucket_probability),
            "--seed",     std::to_string(config.seed)};
}

struct request_pool_t {
    std::vector<std::vector<std::vector<double>>> rows;
    std::vector<std::vector<int>> labels;
    std::vector<std::vector<double>> expected;
};

request_pool_t make_pool(std::uint64_t seed,
                         const core::quorum_config& config) {
    request_pool_t pool;
    util::rng gen(util::derive_seed(seed, 7));
    data::generator_spec spec;
    spec.name = "serve_request";
    spec.samples = request_rows;
    spec.anomalies = request_anomalies;
    spec.features = request_features;
    spec.anomaly_shift = 0.45;
    core::quorum_config oracle = config;
    oracle.threads = 1;
    const core::quorum_detector detector(oracle);
    for (std::size_t k = 0; k < request_pool; ++k) {
        const data::dataset d = data::generate_clustered(spec, gen);
        std::vector<std::vector<double>> rows(d.num_samples());
        for (std::size_t i = 0; i < d.num_samples(); ++i) {
            const auto row = d.row(i);
            rows[i].assign(row.begin(), row.end());
        }
        pool.expected.push_back(detector.score(d).scores);
        pool.labels.push_back(d.labels());
        pool.rows.push_back(std::move(rows));
    }
    return pool;
}

// --- load generation --------------------------------------------------

struct phase_stats {
    std::size_t sent = 0;
    std::size_t succeeded = 0;
    std::size_t failed = 0;
    std::size_t mismatched = 0;
    /// Scheduled but never sent (counted in `failed` too).
    std::size_t unsent = 0;
    std::vector<double> latency_ms;     ///< from due time to reply
    std::vector<double> queue_wait_ms;  ///< from due time to send
    std::vector<double> lag_ms;         ///< generator lateness
    std::vector<double> done_s;         ///< reply times from phase start
    double elapsed_s = 0.0;
    /// Time the last reply arrived after the schedule's end (backlog).
    double overrun_s = 0.0;
};

/// One connection per thread; reconnects after a transport failure.
class connection {
public:
    explicit connection(util::endpoint at) : at_(std::move(at)) {}

    /// Sends one request; true when the reply parsed. Throws nothing.
    bool score(const std::vector<std::vector<double>>& rows,
               std::vector<double>& out) {
        try {
            if (!client_) {
                client_ = std::make_unique<exec::serve_client>(
                    at_, reply_timeout_ms);
            }
            out = client_->score(rows);
            return true;
        } catch (const std::exception&) {
            client_.reset();
            return false;
        }
    }

private:
    util::endpoint at_;
    std::unique_ptr<exec::serve_client> client_;
};

/// Runs one phase. `offsets_s` empty means closed loop for `duration_s`;
/// otherwise request i is due at phase start + offsets_s[i]. Requests
/// that cannot be sent within the grace period after the schedule ends
/// count as failed (a growing backlog).
phase_stats run_phase(const util::endpoint& at, const request_pool_t& pool,
                      const std::vector<double>& offsets_s,
                      double duration_s, std::size_t pool_offset,
                      std::uint64_t request_base, bool traced) {
    phase_stats stats;
    std::mutex mutex;
    std::atomic<std::size_t> next{0};
    const bool closed = offsets_s.empty();
    const auto phase_start = clock::now() + std::chrono::milliseconds(20);
    const double grace_s = std::max(2.0, 0.5 * duration_s);
    const auto cutoff =
        phase_start + std::chrono::duration_cast<clock::duration>(
                          std::chrono::duration<double>(duration_s + grace_s));
    const auto stop_closed =
        phase_start + std::chrono::duration_cast<clock::duration>(
                          std::chrono::duration<double>(duration_s));

    auto worker = [&]() {
        connection conn(at);
        std::vector<double> reply;
        auto free_at = clock::now();
        while (true) {
            const std::size_t i = next.fetch_add(1);
            clock::time_point due;
            if (closed) {
                if (clock::now() >= stop_closed) {
                    return;
                }
                due = std::max(clock::now(), phase_start);
            } else {
                if (i >= offsets_s.size()) {
                    return;
                }
                due = phase_start +
                      std::chrono::duration_cast<clock::duration>(
                          std::chrono::duration<double>(offsets_s[i]));
            }
            if (!closed && clock::now() > cutoff) {
                const std::lock_guard<std::mutex> lock(mutex);
                ++stats.failed; // never sent: the backlog outgrew the run
                ++stats.unsent;
                continue;
            }
            std::this_thread::sleep_until(due);
            const auto sent = clock::now();
            const std::size_t k = (pool_offset + i) % pool.rows.size();
            const bool ok = conn.score(pool.rows[k], reply);
            const auto done = clock::now();
            const bool match = ok && same_scores(reply, pool.expected[k]);
            const auto ms = [](clock::duration d) {
                return std::chrono::duration<double, std::milli>(d).count();
            };
            const std::lock_guard<std::mutex> lock(mutex);
            ++stats.sent;
            if (!ok) {
                ++stats.failed;
            } else if (!match) {
                ++stats.failed;
                ++stats.mismatched;
            } else {
                ++stats.succeeded;
                stats.latency_ms.push_back(ms(done - due));
                stats.queue_wait_ms.push_back(ms(sent - due));
                stats.lag_ms.push_back(ms(sent - std::max(due, free_at)));
                stats.done_s.push_back(
                    std::chrono::duration<double>(done - phase_start)
                        .count());
            }
            if (traced) {
                auto& rec = trace::recorder::instance();
                const std::int32_t parent =
                    rec.add("serve.request", rec.to_ns(due), rec.to_ns(done),
                            -1, request_base + i);
                rec.add("serve.queue_wait", rec.to_ns(due), rec.to_ns(sent),
                        parent, request_base + i);
                rec.add("serve.round_trip", rec.to_ns(sent), rec.to_ns(done),
                        parent, request_base + i);
            }
            free_at = done;
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < connections; ++c) {
        threads.emplace_back(worker);
    }
    for (std::thread& t : threads) {
        t.join();
    }
    stats.elapsed_s = seconds_since(phase_start);
    stats.overrun_s = std::max(0.0, stats.elapsed_s - duration_s);
    return stats;
}

/// Appends one segment's outcomes to a phase's running totals.
void merge(phase_stats& into, const phase_stats& from) {
    into.sent += from.sent;
    into.succeeded += from.succeeded;
    into.failed += from.failed;
    into.mismatched += from.mismatched;
    into.unsent += from.unsent;
    for (auto [to, add] :
         {std::pair{&into.latency_ms, &from.latency_ms},
          std::pair{&into.queue_wait_ms, &from.queue_wait_ms},
          std::pair{&into.lag_ms, &from.lag_ms}}) {
        to->insert(to->end(), add->begin(), add->end());
    }
    into.elapsed_s += from.elapsed_s;
    into.overrun_s = std::max(into.overrun_s, from.overrun_s);
}

/// Completion rates over the phase's whole windows of `window_s`
/// (completions after a window's first, over the time they span).
std::vector<double> window_rates(const phase_stats& s, double duration_s,
                                 double window_s) {
    const auto windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(duration_s / window_s));
    std::vector<std::vector<double>> done(windows);
    for (const double t : s.done_s) {
        const auto w = static_cast<std::size_t>(t / window_s);
        if (w < windows) {
            done[w].push_back(t);
        }
    }
    std::vector<double> rates;
    for (std::vector<double>& d : done) {
        std::sort(d.begin(), d.end());
        if (d.size() >= 2 && d.back() > d.front()) {
            rates.push_back(static_cast<double>(d.size() - 1) /
                            (d.back() - d.front()));
        }
    }
    return rates;
}

/// Poisson arrival offsets at `rate` over `duration_s`, from `seed`.
std::vector<double> poisson_schedule(double rate, double duration_s,
                                     std::uint64_t seed) {
    std::mt19937_64 engine(seed);
    std::vector<double> offsets;
    double t = 0.0;
    while (true) {
        const double u =
            static_cast<double>(engine() >> 11) * 0x1.0p-53; // [0, 1)
        t += -std::log1p(-u) / rate;
        if (t >= duration_s) {
            return offsets;
        }
        offsets.push_back(t);
    }
}

void note_settings(result& r) {
    r.note("daemon_workers", static_cast<double>(daemon_workers));
    r.note("daemon_threads", static_cast<double>(daemon_threads));
    r.note("daemon_schedule", std::string("\"") + daemon_schedule + "\"");
    r.note("connections", static_cast<double>(connections));
    r.note("generator_threads", static_cast<double>(connections));
    r.note("request_shape", "\"" + std::to_string(request_rows) + "x" +
                                std::to_string(request_features) +
                                " rows, groups=" +
                                std::to_string(request_groups) +
                                ", sampled, shots=4096\"");
    r.note("rate_low_rps", rate_low);
    r.note("rate_high_rps", rate_high);
    r.note("loop", "\"rounds of 2.5 s: capacity closed on 4 connections "
                   "(30%), then open Poisson at the low (20%) and high (50%) "
                   "rates\"");
}

void note_phase(result& r, const std::string& name, const phase_stats& s) {
    r.note(name + "_sent", static_cast<double>(s.sent));
    r.note(name + "_succeeded", static_cast<double>(s.succeeded));
    r.note(name + "_failed", static_cast<double>(s.failed));
    r.note(name + "_mismatched", static_cast<double>(s.mismatched));
    r.note(name + "_unsent", static_cast<double>(s.unsent));
    r.note(name + "_elapsed_s", s.elapsed_s);
    r.note(name + "_overrun_s", s.overrun_s);
    report_latency(r, name + "_latency", s.latency_ms);
}

/// Folds a phase's request outcomes into the run's correctness tally.
void count_phase(result& r, const std::string& name, const phase_stats& s) {
    r.tally(s.sent + s.unsent, s.failed,
            name + ": failed, mismatched or unsent requests");
}

/// Waits for lanes, then sends the warm-up requests one by one.
void warm_up(const util::endpoint& at, const request_pool_t& pool,
             result& r) {
    connection conn(at);
    std::vector<double> reply;
    for (std::size_t i = 0; i < warmup_requests; ++i) {
        const std::size_t k = i % pool.rows.size();
        r.check(conn.score(pool.rows[k], reply) &&
                    same_scores(reply, pool.expected[k]),
                "warm-up reply differs from the in-process detector");
    }
}

result run_untraced(const run_options& options) {
    result r;
    note_settings(r);
    const core::quorum_config config = request_config();
    const request_pool_t pool = make_pool(options.seed, config);

    // Set-up: spawn until the daemon serves with every worker joined. The
    // first daemon serves the run; one more is spawned and stopped after
    // each round, so the median spans the whole run.
    std::vector<double> setup_s(1, 0.0);
    auto daemon =
        std::make_unique<daemon_process>(daemon_args(config), setup_s[0]);
    const util::endpoint at = daemon->endpoint();
    warm_up(at, pool, r);

    // Short capacity, low and high segments in turn, so each phase
    // samples the whole run rather than one stretch of it.
    const auto rounds = std::max<std::size_t>(
        1, static_cast<std::size_t>(options.seconds / round_s));
    phase_stats capacity;
    phase_stats low;
    phase_stats high;
    std::vector<double> rates;
    for (std::size_t round = 0; round < rounds; ++round) {
        const phase_stats c = run_phase(at, pool, {}, share_capacity * round_s,
                                        round * 997, 0, false);
        const std::vector<double> w =
            window_rates(c, share_capacity * round_s, capacity_window_s);
        rates.insert(rates.end(), w.begin(), w.end());
        merge(capacity, c);
        const std::uint64_t round_seed = util::derive_seed(options.seed, round);
        merge(low, run_phase(at, pool,
                             poisson_schedule(rate_low, share_low * round_s,
                                              util::derive_seed(round_seed, 1)),
                             share_low * round_s, round * 991 + 17, 0, false));
        merge(high,
              run_phase(at, pool,
                        poisson_schedule(rate_high, share_high * round_s,
                                         util::derive_seed(round_seed, 2)),
                        share_high * round_s, round * 983 + 101, 0, false));
        double spawn_s = 0.0;
        daemon_process extra(daemon_args(config), spawn_s);
        setup_s.push_back(spawn_s);
        r.check(extra.stop(), "daemon group survived stop");
    }
    r.check(daemon->stop(), "daemon group survived stop");
    daemon.reset();

    count_phase(r, "capacity", capacity);
    count_phase(r, "low", low);
    count_phase(r, "high", high);
    note_phase(r, "capacity", capacity);
    note_phase(r, "low", low);
    note_phase(r, "high", high);

    double auc = 0.0;
    for (std::size_t k = 0; k < pool.rows.size(); ++k) {
        auc += quorum::metrics::roc_auc(pool.labels[k], pool.expected[k]);
    }
    r.set("setup_s", median(setup_s), "s");
    r.note("auc", auc / static_cast<double>(pool.rows.size()));
    r.set("throughput_per_s", fast_rate(rates), "1/s");
    r.set("latency_fast_ms", fast_latency(high.latency_ms), "ms");
    r.note("throughput_p50", median(rates));
    r.note("throughput_unit",
           "\"requests per second, closed loop over 4 connections, fast "
           "tail of 0.1 s windows\"");
    r.note("latency_op", "\"one request at the high rate, from its due "
                         "time to its reply\"");
    return r;
}

result run_traced(const run_options& options) {
    result r;
    note_settings(r);
    const core::quorum_config config = request_config();
    const request_pool_t pool = make_pool(options.seed, config);
    double setup = 0.0;
    daemon_process daemon(daemon_args(config), setup);
    const util::endpoint at = daemon.endpoint();
    warm_up(at, pool, r);

    // The same request through three paths, one request at a time:
    // in-process compute, the in-process fleet, and the daemon.
    exec::fleet_config fleet_config;
    fleet_config.inner = "statevector";
    fleet_config.engine = config.to_engine_config();
    auto fleet = std::make_shared<exec::worker_fleet>(fleet_config);
    for (std::size_t lane = 0; lane < daemon_workers; ++lane) {
        fleet->add_factory_lane(exec::process_transport_factory(),
                                "lane " + std::to_string(lane));
    }
    fleet->wait_for_lanes(daemon_workers, 15000);
    exec::register_backend("perfbench_fleet",
                           [fleet](const exec::engine_config&) {
                               return std::make_unique<exec::fleet_executor>(
                                   fleet);
                           });
    core::quorum_config fleet_detector_config = config;
    fleet_detector_config.backend = "perfbench_fleet";

    std::vector<double> compute_ms;
    std::vector<double> traced_ms;
    std::vector<double> fleet_ms;
    std::vector<double> daemon_ms;
    double fleet_spans = 0.0;
    double requeues = 0.0;
    connection conn(at);
    std::vector<double> reply;
    const auto ms_since = [](clock::time_point start) {
        return 1e3 * seconds_since(start);
    };
    for (std::size_t i = 0; i < traced_requests; ++i) {
        const std::size_t k = i % pool.rows.size();
        const data::dataset d = data::dataset::from_rows(pool.rows[k]);

        // Alternate which of the two in-process paths goes first, so
        // neither always runs on the other's warm caches.
        const auto compute = [&] {
            const auto start = clock::now();
            const core::quorum_detector local(config);
            r.check(same_scores(local.score(d).scores, pool.expected[k]),
                    "in-process compute differs");
            compute_ms.push_back(ms_since(start));
        };
        const auto recompose = [&] {
            const auto start = clock::now();
            const core::score_report traced =
                traced_score(d, config, "exec.replay.sampled", i + 1);
            traced_ms.push_back(ms_since(start));
            r.check(same_scores(traced.scores, pool.expected[k]),
                    "traced recomposition differs");
        };
        if (i % 2 == 0) {
            compute();
            recompose();
        } else {
            recompose();
            compute();
        }
        r.check(traced_real_groups(d, config, pool.expected[k]),
                "run_ensemble_group pass differs");

        const exec::fleet_stats before = fleet->stats();
        auto start = clock::now();
        const core::quorum_detector through_fleet(fleet_detector_config);
        r.check(same_scores(through_fleet.score(d).scores, pool.expected[k]),
                "in-process fleet differs");
        fleet_ms.push_back(ms_since(start));
        const exec::fleet_stats after = fleet->stats();
        fleet_spans += static_cast<double>(after.spans_completed -
                                           before.spans_completed);
        requeues += static_cast<double>(after.requeued_spans -
                                        before.requeued_spans);

        start = clock::now();
        const bool ok = conn.score(pool.rows[k], reply);
        daemon_ms.push_back(ms_since(start));
        r.check(ok && same_scores(reply, pool.expected[k]),
                "daemon reply differs");
    }
    fleet.reset();

    const double high_s = std::min(2.0, share_high * options.seconds);
    const phase_stats high = run_phase(
        at, pool, poisson_schedule(rate_high, high_s,
                                   util::derive_seed(options.seed, 2)),
        high_s, 101, 1000000, true);
    count_phase(r, "high", high);
    note_phase(r, "high", high);
    r.check(daemon.stop(), "daemon group survived stop");

    const auto engine = exec::make_executor(config.resolved_backend(),
                                            config.to_engine_config());
    report_batch_layers(r, count_programs(config, *engine),
                        {"exec.replay.sampled"});
    const auto n = static_cast<double>(traced_requests);
    const double compute = median(compute_ms);
    const double through_fleet = median(fleet_ms);
    r.set("core.compute_ms", compute, "ms");
    r.set("exec.fleet_overhead_ms", through_fleet - compute, "ms");
    r.set("serve.qsrv1_overhead_ms", median(daemon_ms) - through_fleet,
          "ms");
    r.set("exec.fleet_spans_per_request", fleet_spans / n, "count");
    r.set("exec.fleet_requeues", requeues, "count");
    r.set("serve.queue_wait_ms_p50", median(high.queue_wait_ms), "ms");
    double percentile = 0.0;
    r.set("serve.generator_lag_ms_tail", tail(high.lag_ms, percentile),
          "ms");
    r.note("generator_lag_tail_percentile", percentile);
    r.set("trace_overhead_share", median(traced_ms) / compute - 1.0,
          "ratio");
    r.note("daemon_round_trip_ms", median(daemon_ms));
    r.note("fleet_ms", through_fleet);
    return r;
}

} // namespace

result run_serve_open(const run_options& options) {
    install_cleanup_handlers();
    return options.trace ? run_traced(options) : run_untraced(options);
}

} // namespace perfbench
