// Client for the quorum_serve scoring daemon's line protocol.
//
// The protocol ("QSRV1", spec in docs/ARCHITECTURE.md) is deliberately
// textual — one header line plus CSV-ish feature rows in, one header line
// plus score lines out — so any language can drive the daemon with a
// socket and printf. Doubles travel as %.17g, which round-trips IEEE-754
// binary64 exactly; that is what lets the serve-path golden tests assert
// scores through the daemon are IEEE == to in-process scores.
//
//   client -> server:  "QSRV1 SCORE <rows> <cols>\n"
//                      <rows> lines, <cols> comma-separated features each
//   server -> client:  "QSRV1 OK <rows>\n" + <rows> score lines, or
//                      "QSRV1 ERR <message>\n"
//
// A connection is a session: requests can be issued back to back, and the
// server holds no per-request state beyond the reply in flight.
#ifndef QUORUM_EXEC_SERVE_CLIENT_H
#define QUORUM_EXEC_SERVE_CLIENT_H

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/net.h"

namespace quorum::exec {

/// Protocol tag opening every request and reply line.
inline constexpr std::string_view serve_protocol_tag = "QSRV1";

/// Renders a double as text that parses back to the identical bit
/// pattern (%.17g — shared with the golden-fixture format).
[[nodiscard]] std::string serve_format_double(double value);

/// Caps a request may reach: rows x cols beyond them is a client error.
inline constexpr std::size_t serve_max_rows = 100000;
inline constexpr std::size_t serve_max_cols = 4096;

/// Parses a "QSRV1 SCORE <rows> <cols>" request header. Returns false
/// for any other line and for counts outside [1, serve_max_*]; never
/// throws — the server parses untrusted text.
[[nodiscard]] bool serve_parse_request_header(std::string_view line,
                                              std::size_t& rows,
                                              std::size_t& cols);

/// Parses one request row: exactly `cols` comma-separated numbers, each
/// a whole util::parse_real token. Returns false on anything else.
[[nodiscard]] bool serve_parse_feature_row(std::string_view line,
                                           std::size_t cols,
                                           std::vector<double>& row);

class serve_client {
public:
    /// Connects to a running quorum_serve. Throws transport_error (via
    /// util::net_error) naming host:port on refusal.
    explicit serve_client(const util::endpoint& server,
                          int timeout_ms = 120000);

    /// Scores one batch of feature rows (all rows the same width).
    /// Returns one score per row, in row order. Server-side rejections
    /// ("QSRV1 ERR ...") throw util::contract_error carrying the
    /// server's message; a dead connection throws transport_error.
    [[nodiscard]] std::vector<double>
    score(const std::vector<std::vector<double>>& rows);

private:
    util::unique_fd fd_;
    std::string peer_;
    int timeout_ms_;
    util::line_reader reader_;
};

} // namespace quorum::exec

#endif // QUORUM_EXEC_SERVE_CLIENT_H
