// The cbtc_serve scenario service: accepts batch requests over the
// wire protocol (api/wire.h) and streams block partials back.
//
// Concurrency model: one connection at a time. A shard's parallelism
// lives *inside* a request — seed blocks fan across the process-wide
// executor — so serializing connections wastes nothing and keeps the
// failure model trivial (a dead connection aborts exactly one
// request; the dispatcher re-dispatches its unfinished blocks to any
// live shard). Several servers in one process (an in-process fleet,
// as in tests and benches) each get their full width: every request's
// batch is a top-level executor task, and the executor sizes its
// workers for the sum of the concurrent top-level widths.
//
// Security: no authentication, no encryption — bind trusted-network
// interfaces only (the default is loopback).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "api/engine.h"
#include "net/socket.h"

namespace cbtc::net {

struct serve_config {
  std::string bind_address{"127.0.0.1"};
  std::uint16_t port{0};  ///< 0 = ephemeral (see scenario_server::port)
  unsigned threads{0};    ///< engine threads per request; a request's own
                          ///< nonzero `threads` hint wins. 0 = hardware.
  int io_timeout_ms{30000};

  // -- fault injection (tests only) ---------------------------------
  // Deterministically simulates a shard killed mid-batch: the first
  // `drop_connections` request connections are severed (no done frame,
  // no further partials) after `drop_after_partials` partials went out.
  std::size_t drop_after_partials{0};
  std::size_t drop_connections{0};
  /// Sends every partial twice — exercises the dispatcher's
  /// duplicate-suppression path.
  bool duplicate_partials{false};
};

class scenario_server {
 public:
  /// Binds the listener (throws net_error on failure). Serving starts
  /// with run().
  explicit scenario_server(serve_config cfg);

  /// The bound port (the actual one when cfg.port was 0).
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Accept-and-serve loop; returns after stop() (checked between
  /// connections) or a client's shutdown frame.
  void run();

  /// Signals run() to return. Safe from any thread; the current
  /// connection finishes first.
  void stop() { stop_.store(true); }

 private:
  void handle(tcp_stream conn, bool inject_drop);

  template <class Report, class RunBlocks>
  void stream_and_reply(tcp_stream& conn, bool inject_drop, const RunBlocks& run_blocks);

  serve_config cfg_;
  tcp_listener listener_;
  std::atomic<bool> stop_{false};
  std::size_t dropped_connections_{0};
  api::engine engine_;
};

}  // namespace cbtc::net
