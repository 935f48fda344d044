#include "cksafe/shard/shard_server.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <utility>

#include "cksafe/util/check.h"
#include "cksafe/util/string_util.h"

namespace cksafe {

/// The per-connection pipeline. The reader thread admits queries and
/// pushes (id, future) pairs; the sender thread waits each future in FIFO
/// order and writes the response under send_mu (which also serializes the
/// reader's inline control responses against it).
struct ShardServer::Connection {
  UnixSocket socket;
  std::mutex send_mu;

  struct InFlight {
    uint64_t id = 0;
    std::future<StatusOr<QueryAnswer>> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> in_flight;
  bool reader_done = false;

  std::thread reader;
  std::thread sender;
};

ShardServer::ShardServer(ShardServerOptions options)
    : options_(std::move(options)) {}

ShardServer::~ShardServer() {
  Stop();
  // Serve() joins the handler threads; if Serve was never entered (or
  // already returned) there is nothing left running, but join any
  // stragglers from a Create-then-destroy without Serve.
  JoinConnections();
}

void ShardServer::JoinConnections() {
  // Snapshot under the lock, join outside it: a reader thread handling a
  // shutdown frame is itself inside Stop() waiting for conns_mu_, so
  // joining while holding the lock would deadlock. Once stopping_ is set
  // the accept loop adds no new connections, so the snapshot is complete.
  std::vector<Connection*> to_join;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    to_join.reserve(conns_.size());
    for (auto& conn : conns_) to_join.push_back(conn.get());
  }
  for (Connection* conn : to_join) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->sender.joinable()) conn->sender.join();
  }
}

StatusOr<std::unique_ptr<ShardServer>> ShardServer::Create(
    ShardServerOptions options) {
  if (options.socket_path.empty()) {
    return Status::InvalidArgument("shard needs a socket path");
  }
  std::unique_ptr<ShardServer> server(new ShardServer(options));
  QueryRouter::Options router_options;
  router_options.queue_capacity = options.router_queue_capacity;
  if (options.durable_dir.empty()) {
    server->engine_ = std::make_unique<ServingEngine>(router_options);
  } else {
    DurableStoreOptions store_options;
    store_options.dir = options.durable_dir;
    store_options.buffer_pool_pages = options.buffer_pool_pages;
    store_options.profile_max_k = options.profile_max_k;
    store_options.test_crash_after_bytes = options.test_crash_after_bytes;
    CKSAFE_ASSIGN_OR_RETURN(
        server->engine_,
        ServingEngine::CreateDurable(store_options, router_options));
    // Rebuild the adopted-publish history the handoff path serves from:
    // the store holds every committed sequence, and decode is
    // deterministic, so the rebuilt history is bit-identical to the
    // pre-crash one.
    const DurableStore* store = server->engine_->durable_store();
    for (const std::string& tenant : store->tenants()) {
      auto& per_tenant = server->history_[tenant];
      for (const uint64_t sequence : store->Sequences(tenant)) {
        CKSAFE_ASSIGN_OR_RETURN(per_tenant[sequence],
                                store->LoadSnapshot(tenant, sequence));
      }
    }
  }
  CKSAFE_RETURN_IF_ERROR(server->listener_.Bind(options.socket_path));
  return server;
}

Status ShardServer::Serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    StatusOr<UnixSocket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_acquire)) break;
      return accepted.status();
    }
    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(accepted).value();
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->reader = std::thread([this, raw] { HandleConnection(raw); });
    raw->sender = std::thread([this, raw] { SenderLoop(raw); });
  }
  JoinConnections();
  return Status::OK();
}

void ShardServer::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  listener_.Shutdown();
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& conn : conns_) {
    conn->socket.Shutdown();
  }
}

void ShardServer::HandleConnection(Connection* conn) {
  for (;;) {
    StatusOr<WireFrame> frame = RecvFrame(&conn->socket);
    if (!frame.ok()) break;  // peer gone, malformed frame, or Stop()
    if (Status handled = HandleFrame(conn, std::move(frame).value());
        !handled.ok()) {
      break;  // send failed: the peer is gone
    }
  }
  // Unblock the sender; it drains in-flight futures before exiting (the
  // router resolves every admitted promise, so the drain terminates).
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->reader_done = true;
  }
  conn->cv.notify_all();
}

void ShardServer::SenderLoop(Connection* conn) {
  for (;;) {
    Connection::InFlight next;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->cv.wait(lock, [conn] {
        return conn->reader_done || !conn->in_flight.empty();
      });
      if (conn->in_flight.empty()) return;  // reader done and drained
      next = std::move(conn->in_flight.front());
      conn->in_flight.pop_front();
    }
    WireQueryResponse response;
    response.id = next.id;
    StatusOr<QueryAnswer> answer = next.future.get();
    if (answer.ok()) {
      response.answer = std::move(answer).value();
    } else {
      response.status = answer.status();
    }
    std::lock_guard<std::mutex> lock(conn->send_mu);
    if (Status sent = SendFrame(&conn->socket, WireType::kQueryResponse,
                                EncodeQueryResponse(response));
        !sent.ok()) {
      // Peer gone: keep draining futures (so every promise's value is
      // consumed) but nothing more goes on the wire.
      conn->socket.Shutdown();
    }
  }
}

Status ShardServer::RespondControl(Connection* conn, WireType type,
                                   std::vector<uint8_t> payload) {
  std::lock_guard<std::mutex> lock(conn->send_mu);
  return SendFrame(&conn->socket, type, std::move(payload));
}

WireShardStats ShardServer::Stats() const {
  WireShardStats stats;
  static_cast<RouterStats&>(stats) = engine_->router()->stats();
  stats.publishes = publishes_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(history_mu_);
  stats.tenants = history_.size();
  return stats;
}

Status ShardServer::HandleFrame(Connection* conn, WireFrame frame) {
  switch (frame.type) {
    case WireType::kQueryRequest: {
      StatusOr<WireQueryRequest> request = DecodeQueryRequest(frame.payload);
      if (!request.ok()) return request.status();  // protocol error: hang up
      if (options_.test_stall_queries_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.test_stall_queries_ms));
      }
      StatusOr<std::future<StatusOr<QueryAnswer>>> submitted =
          engine_->router()->Submit(request->query);
      if (!submitted.ok()) {
        // Admission failure — including the ResourceExhausted backpressure
        // signal — is answered inline; nothing was queued.
        WireQueryResponse response;
        response.id = request->id;
        response.status = submitted.status();
        return RespondControl(conn, WireType::kQueryResponse,
                              EncodeQueryResponse(response));
      }
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        Connection::InFlight in_flight;
        in_flight.id = request->id;
        in_flight.future = std::move(submitted).value();
        conn->in_flight.push_back(std::move(in_flight));
      }
      conn->cv.notify_one();
      return Status::OK();
    }
    case WireType::kPublishRequest: {
      StatusOr<WirePublishRequest> request =
          DecodePublishRequest(frame.payload);
      if (!request.ok()) return request.status();
      WirePublishResponse response;
      response.id = request->id;
      const std::shared_ptr<const ReleaseSnapshot>& snapshot =
          request->snapshot;
      const SnapshotStore* slot = engine_->directory()->Find(request->tenant);
      const std::shared_ptr<const ReleaseSnapshot> current =
          slot == nullptr ? nullptr : slot->Current();
      if (current != nullptr && snapshot->sequence <= current->sequence) {
        // Idempotent re-adopt: a migrate-back hands this shard sequences
        // it has already served (the serving slot only moves forward, and
        // a durable store holds every sequence up to its latest). Same
        // sequence must mean the same bytes — verify, record into the
        // handoff history if it was dropped, and acknowledge.
        std::lock_guard<std::mutex> lock(history_mu_);
        auto& per_tenant = history_[request->tenant];
        auto it = per_tenant.find(snapshot->sequence);
        if (it != per_tenant.end() &&
            !SnapshotsBitIdentical(*it->second, *snapshot)) {
          response.status = Status::AlreadyExists(StrFormat(
              "tenant '%s' sequence %llu re-published with different bytes",
              request->tenant.c_str(),
              static_cast<unsigned long long>(snapshot->sequence)));
        } else {
          if (it == per_tenant.end()) per_tenant[snapshot->sequence] = snapshot;
          response.sequence = snapshot->sequence;
        }
      } else {
        response.status =
            engine_->PublishSnapshot(request->tenant, snapshot);
        if (response.status.ok()) {
          response.sequence = snapshot->sequence;
          publishes_.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(history_mu_);
          history_[request->tenant][snapshot->sequence] = snapshot;
        }
      }
      return RespondControl(conn, WireType::kPublishResponse,
                            EncodePublishResponse(response));
    }
    case WireType::kHandoffRequest: {
      StatusOr<WireHandoffRequest> request =
          DecodeHandoffRequest(frame.payload);
      if (!request.ok()) return request.status();
      WireHandoffResponse response;
      response.id = request->id;
      {
        std::lock_guard<std::mutex> lock(history_mu_);
        auto it = history_.find(request->tenant);
        if (it == history_.end()) {
          response.status = Status::NotFound(
              StrFormat("tenant '%s' has no publishes on this shard",
                        request->tenant.c_str()));
        } else {
          // std::map iterates ascending by sequence — the order the
          // migration target must adopt (and a durable target must
          // append) them in.
          response.snapshots.reserve(it->second.size());
          for (const auto& [sequence, snapshot] : it->second) {
            (void)sequence;
            response.snapshots.push_back(snapshot);
          }
        }
      }
      return RespondControl(conn, WireType::kHandoffResponse,
                            EncodeHandoffResponse(response));
    }
    case WireType::kDropRequest: {
      StatusOr<WireDropRequest> request = DecodeDropRequest(frame.payload);
      if (!request.ok()) return request.status();
      WireDropResponse response;
      response.id = request->id;
      {
        // Drop forgets the handoff history; the serving slot itself stays
        // (ServingDirectory has no removal — harmless, since the fleet
        // routes the tenant elsewhere after the migration flip, and on a
        // durable shard the store keeps the history anyway).
        std::lock_guard<std::mutex> lock(history_mu_);
        if (history_.erase(request->tenant) == 0) {
          response.status = Status::NotFound(
              StrFormat("tenant '%s' has no publishes on this shard",
                        request->tenant.c_str()));
        }
      }
      return RespondControl(conn, WireType::kDropResponse,
                            EncodeDropResponse(response));
    }
    case WireType::kPingRequest: {
      StatusOr<WirePingRequest> request = DecodePingRequest(frame.payload);
      if (!request.ok()) return request.status();
      WirePingResponse response;
      response.id = request->id;
      response.stats = Stats();
      return RespondControl(conn, WireType::kPingResponse,
                            EncodePingResponse(response));
    }
    case WireType::kShutdownRequest: {
      StatusOr<WireShutdownRequest> request =
          DecodeShutdownRequest(frame.payload);
      if (!request.ok()) return request.status();
      WireShutdownResponse response;
      response.id = request->id;
      // Acknowledge BEFORE stopping: the fleet's shutdown call completes
      // only once the shard has committed to stopping.
      const Status sent = RespondControl(conn, WireType::kShutdownResponse,
                                         EncodeShutdownResponse(response));
      Stop();
      return sent;
    }
    case WireType::kQueryResponse:
    case WireType::kPublishResponse:
    case WireType::kHandoffResponse:
    case WireType::kDropResponse:
    case WireType::kPingResponse:
    case WireType::kShutdownResponse:
      return Status::InvalidArgument(
          "response frame sent to a shard (client/server confusion)");
  }
  return Status::InvalidArgument("unhandled frame type");
}

int RunShardProcess(const ShardServerOptions& options) {
  StatusOr<std::unique_ptr<ShardServer>> server = ShardServer::Create(options);
  if (!server.ok()) return 1;
  const Status served = (*server)->Serve();
  return served.ok() ? 0 : 2;
}

}  // namespace cksafe
