// Completion-driven wire protocol microbenchmark: what pipelined in-flight
// requests buy on one channel, from raw RpcClient ladders up to the kv
// client's reads of objects a RedisConnector stored.
//
// Two comparisons, both in deterministic virtual time:
//   * sequential vs pipelined RPC ladder — N echo calls one round trip at a
//     time (sum-of-round-trips) against N call_async issued back-to-back on
//     one channel (request transfer, FIFO service, and response transfer of
//     consecutive requests overlap: total is ~max-of-pipeline);
//   * kv in-flight scaling — 1..64 outstanding reads of RedisConnector
//     objects on the kv channel, each a one-key KvClient::get_many_async (a
//     one-key MGET is charged exactly like a GET for values of 8 bytes or
//     more). The Connector protocol is synchronous; asynchrony lives at the
//     wire, whose completion-driven ops hold ZERO executor workers while in
//     flight, hard-asserted via the async.executor.submitted counter
//     (delta must be 0 across the run).
// Both wins are hard-asserted so the blessed baseline encodes them and the
// CI diff gate fails if either regresses.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "connectors/redis.hpp"
#include "kv/client.hpp"
#include "kv/server.hpp"
#include "obs/metrics.hpp"
#include "rpc/rpc.hpp"
#include "sim/vtime.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace ps;

std::uint64_t executor_submitted() {
  return obs::MetricsRegistry::global()
      .counter("async.executor.submitted")
      .value();
}

double run_sequential(rpc::RpcClient& client, const Bytes& payload,
                      int depth) {
  sim::VtimeScope elapsed;
  for (int i = 0; i < depth; ++i) {
    const Bytes response = client.call("echo", payload);
    if (response.size() != payload.size()) {
      throw Error("micro_rpc: echo returned a truncated response");
    }
  }
  return elapsed.elapsed();
}

double run_pipelined(rpc::RpcClient& client, const Bytes& payload,
                     int depth) {
  sim::VtimeScope elapsed;
  std::vector<core::Future<Bytes>> ladder;
  ladder.reserve(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    ladder.push_back(client.call_async("echo", payload));
  }
  for (auto& pending : ladder) {
    if (pending.wait().size() != payload.size()) {
      throw Error("micro_rpc: pipelined echo returned a truncated response");
    }
  }
  return elapsed.elapsed();
}

double run_kv_ladder(kv::KvClient& client, const std::vector<core::Key>& keys) {
  sim::VtimeScope elapsed;
  std::vector<core::Future<std::vector<std::optional<Bytes>>>> ladder;
  ladder.reserve(keys.size());
  for (const core::Key& key : keys) {
    ladder.push_back(client.get_many_async({key.object_id}));
  }
  for (auto& pending : ladder) {
    if (!pending.wait().front()) {
      throw Error("micro_rpc: kv ladder lost an object");
    }
  }
  return elapsed.elapsed();
}

int run(const ps::bench::Args& args) {
  testbed::Testbed tb = testbed::build();
  proc::Process& client_proc = tb.world->spawn("rpc-client",
                                               tb.theta_compute0);
  auto server = rpc::RpcServer::start(*tb.world, tb.theta_login, "rpc-bench",
                                      rpc::margo_transport());
  server->register_handler("echo",
                           [](BytesView request) { return Bytes(request); });
  kv::KvServer::start(*tb.world, tb.theta_login, "rpc-bench-kv");

  proc::ProcessScope scope(client_proc);
  rpc::RpcClient client(
      rpc::rpc_address("margo", tb.theta_login, "rpc-bench"));
  const std::string kv_address =
      kv::kv_address(tb.theta_login, "rpc-bench-kv");
  connectors::RedisConnector connector(kv_address);
  kv::KvClient kv_client(kv_address);

  // Everything below must complete without parking a single executor
  // worker: call_async and get_many_async are completion-driven, not
  // thread-per-request.
  const std::uint64_t submitted_before = executor_submitted();

  const std::size_t payload_size = args.max_size != 0
                                       ? std::min<std::size_t>(
                                             args.max_size, 262'144)
                                       : 262'144;
  std::uint64_t seed = args.seed;
  const Bytes payload = pattern_bytes(payload_size, seed++);
  const std::vector<int> depths = {1, 4, 16, 64};

  ps::bench::print_header(
      "Completion-driven wire protocol (Theta compute -> login, margo)\n"
      "sequential = N blocking echo round trips (sum-of-round-trips);\n"
      "pipelined = N call_async in flight on one channel "
      "(~max-of-pipeline);\nconnector = N outstanding one-key "
      "KvClient get_many_async of RedisConnector objects, zero executor "
      "workers");
  ps::bench::print_row({"depth", "sequential", "pipelined"});

  double deepest_sequential = 0.0;
  double deepest_pipelined = 0.0;
  for (const int depth : depths) {
    const std::string suffix = std::to_string(depth);
    const double sequential = run_sequential(client, payload, depth);
    ps::bench::series("micro_rpc.rpc_sequential." + suffix)
        .observe(sequential);
    const double pipelined = run_pipelined(client, payload, depth);
    ps::bench::series("micro_rpc.rpc_pipelined." + suffix).observe(pipelined);
    ps::bench::print_row(
        {suffix, ps::bench::fmt_series("micro_rpc.rpc_sequential." + suffix),
         ps::bench::fmt_series("micro_rpc.rpc_pipelined." + suffix)});

    if (depth == 1) {
      // A depth-1 "ladder" is a plain round trip: the async path must cost
      // exactly what the blocking path does.
      if (std::abs(pipelined - sequential) > 1e-12 * sequential) {
        throw Error("micro_rpc: single call_async round trip (" +
                    std::to_string(pipelined) + "s) diverged from call (" +
                    std::to_string(sequential) + "s)");
      }
    } else if (pipelined >= sequential) {
      throw Error("micro_rpc: pipelined ladder of " + suffix + " (" +
                  std::to_string(pipelined) + "s) did not beat " + suffix +
                  " sequential round trips (" + std::to_string(sequential) +
                  "s)");
    }
    deepest_sequential = sequential;
    deepest_pipelined = pipelined;
  }

  // The tentpole claim, hard-asserted: a deep ladder costs ~max-of-pipeline
  // (bounded by the slowest wire lane), not sum-of-round-trips. With
  // symmetric echo transfers the request and response lanes each carry the
  // full payload, so the pipelined total must land well under 60% of the
  // sequential sum (the remaining >40% is the pipelining win).
  if (deepest_pipelined >= 0.6 * deepest_sequential) {
    throw Error("micro_rpc: deep ladder cost " +
                std::to_string(deepest_pipelined) + "s is not ~max-of-" +
                "pipeline vs the sequential sum " +
                std::to_string(deepest_sequential) + "s");
  }

  // Part 2: in-flight scaling of one-key kv reads on the kv channel.
  ps::bench::print_row({"inflight", "total", "per-op"});
  const std::size_t object_size = 65'536;
  double per_op_single = 0.0;
  double per_op_deepest = 0.0;
  for (const int inflight : {1, 2, 4, 8, 16, 32, 64}) {
    std::vector<Bytes> values;
    values.reserve(static_cast<std::size_t>(inflight));
    for (int i = 0; i < inflight; ++i) {
      values.push_back(pattern_bytes(object_size, seed++));
    }
    const std::vector<core::Key> keys = connector.put_batch(values);
    const double total = run_kv_ladder(kv_client, keys);
    const double per_op = total / inflight;
    const std::string suffix = std::to_string(inflight);
    ps::bench::series("micro_rpc.conn_async." + suffix).observe(total);
    ps::bench::print_row({suffix,
                          ps::bench::fmt_series("micro_rpc.conn_async." +
                                                suffix),
                          ps::bench::fmt_seconds(per_op)});
    if (inflight == 1) per_op_single = per_op;
    per_op_deepest = per_op;
  }
  // Wire-level concurrency must amortize: 64 outstanding ops share the
  // channel, so the per-op cost has to fall well below a lone round trip.
  if (per_op_deepest >= 0.6 * per_op_single) {
    throw Error("micro_rpc: 64-deep kv ladder per-op cost " +
                std::to_string(per_op_deepest) +
                "s did not amortize vs a single round trip " +
                std::to_string(per_op_single) + "s");
  }

  // Zero-executor-occupancy: every async op above was completion-driven.
  // One parked worker anywhere bumps async.executor.submitted and fails the
  // bench.
  const std::uint64_t submitted_delta =
      executor_submitted() - submitted_before;
  if (submitted_delta != 0) {
    throw Error("micro_rpc: async ops parked " +
                std::to_string(submitted_delta) +
                " executor worker jobs; the wire protocol must be "
                "completion-driven (zero executor occupancy)");
  }
  std::printf("\nexecutor occupancy: 0 submitted jobs across %zu async ops\n",
              static_cast<std::size_t>(depths.back() + 64));

  ps::bench::finish(args);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ps::bench::Args args = ps::bench::parse_args("micro_rpc", argc, argv);
  try {
    return run(args);
  } catch (const ps::Error& err) {
    std::fprintf(stderr, "micro_rpc: %s\n", err.what());
    return 1;
  }
}
