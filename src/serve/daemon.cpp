#include "serve/daemon.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/time.h"
#include "io/csv.h"
#include "io/framing.h"
#include "io/monitor_io.h"
#include "serve/server.h"

namespace pmcorr {
namespace {

// Self-pipe signal bridge: the handler does the only async-signal-safe
// thing — write one byte — and the poll loop turns it into a drain.
int g_signal_pipe_write = -1;

void OnDrainSignal(int /*signo*/) {
  const char byte = 1;
  // A full pipe just means a drain is already pending.
  [[maybe_unused]] const ssize_t n = write(g_signal_pipe_write, &byte, 1);
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error("serve: fcntl(O_NONBLOCK) failed");
  }
}

/// One client connection of the poll loop.
struct Connection {
  explicit Connection(ServeCore& core) : session(core) {}
  int fd = -1;
  FrameReader reader;
  ServeSession session;
  std::string outbuf;
  bool last_backpressure = false;
  /// Protocol violation: flush what is queued, then close.
  bool closing = false;
};

/// Builds one tenant: restore from its checkpoint when one exists,
/// otherwise train from the trace. Sets `restored_primary` when the
/// monitor came from the primary generation (its state is on disk).
std::unique_ptr<SystemMonitor> BuildTenantMonitor(
    const ServeDaemonOptions& options, const ServeTenantSpec& spec,
    const std::string& checkpoint_path, bool& restored_primary) {
  restored_primary = false;
  if (!checkpoint_path.empty()) {
    CheckpointRecoveryInfo recovery;
    try {
      std::unique_ptr<SystemMonitor> monitor =
          LoadSystemMonitor(checkpoint_path, options.threads, &recovery);
      std::printf("tenant %s: restored from %s (generation %zu)\n",
                  spec.name.c_str(), recovery.loaded_path.c_str(),
                  recovery.generation);
      for (const std::string& rejection : recovery.rejected) {
        std::printf("tenant %s: rejected newer candidate %s\n",
                    spec.name.c_str(), rejection.c_str());
      }
      restored_primary = recovery.generation == 0;
      return monitor;
    } catch (const std::exception&) {
      // No generation loadable: cold start from the trace.
    }
  }
  const MeasurementFrame frame = ReadFrameCsv(spec.trace_path);
  const TimePoint split =
      frame.StartTime() + static_cast<TimePoint>(spec.train_days) * kDay;
  const MeasurementFrame train = frame.SliceByTime(frame.StartTime(), split);
  if (train.SampleCount() < 2) {
    throw std::runtime_error("tenant " + spec.name + ": trace " +
                             spec.trace_path +
                             " has fewer than two training samples");
  }
  MeasurementGraph graph =
      MeasurementGraph::Neighborhood(train, options.partners, 7);
  MonitorConfig config;
  config.threads = options.threads;
  if (options.retrain_interval > 0) {
    config.retrain.enabled = true;
    config.retrain.pool.interval_samples = options.retrain_interval;
  }
  auto monitor =
      std::make_unique<SystemMonitor>(train, std::move(graph), config);
  std::printf("tenant %s: trained %zu pair models on %zu samples\n",
              spec.name.c_str(), monitor->Graph().PairCount(),
              train.SampleCount());
  return monitor;
}

void FlushOutbuf(Connection& conn) {
  while (!conn.outbuf.empty()) {
    const ssize_t n =
        send(conn.fd, conn.outbuf.data(), conn.outbuf.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      conn.outbuf.clear();  // broken peer: nothing left to flush
      conn.closing = true;
      return;
    }
    conn.outbuf.erase(0, static_cast<std::size_t>(n));
  }
}

const char* CheckpointStateName(std::uint8_t state) {
  switch (state) {
    case 0:
      return "none";
    case 1:
      return "ok";
    default:
      return "failed";
  }
}

}  // namespace

int RunServeDaemon(const ServeDaemonOptions& options) {
  if (options.socket_path.empty() || options.tenants.empty()) {
    throw std::runtime_error(
        "serve: --socket and at least one --tenant are required");
  }

  if (!options.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint_dir, ec);
    if (ec) {
      throw std::runtime_error("serve: cannot create checkpoint dir " +
                               options.checkpoint_dir + ": " + ec.message());
    }
  }

  ServeCore core;
  for (const ServeTenantSpec& spec : options.tenants) {
    std::string checkpoint_path;
    if (!options.checkpoint_dir.empty()) {
      checkpoint_path = options.checkpoint_dir + "/" + spec.name + ".ckpt";
    }
    TenantConfig config;
    config.name = spec.name;
    config.queue_budget = options.queue_budget;
    config.checkpoint_every = options.checkpoint_every;
    config.checkpoint_path = checkpoint_path;
    config.ingest_delay_ms = options.ingest_delay_ms;
    bool restored_primary = false;
    std::unique_ptr<SystemMonitor> monitor =
        BuildTenantMonitor(options, spec, checkpoint_path, restored_primary);
    core.AddTenant(std::move(config), std::move(monitor), restored_primary);
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " +
                             options.socket_path);
  }
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  unlink(options.socket_path.c_str());
  const int listen_fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) throw std::runtime_error("serve: socket() failed");
  if (bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) < 0 ||
      listen(listen_fd, 16) < 0) {
    close(listen_fd);
    throw std::runtime_error("serve: cannot bind " + options.socket_path);
  }
  SetNonBlocking(listen_fd);

  int signal_pipe[2] = {-1, -1};
  if (pipe(signal_pipe) != 0) {
    close(listen_fd);
    throw std::runtime_error("serve: pipe() failed");
  }
  SetNonBlocking(signal_pipe[0]);
  SetNonBlocking(signal_pipe[1]);
  g_signal_pipe_write = signal_pipe[1];
  struct sigaction action{};
  action.sa_handler = OnDrainSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  std::printf("serve: listening on %s (%zu tenants)\n",
              options.socket_path.c_str(), core.TenantCount());
  std::fflush(stdout);

  std::vector<std::unique_ptr<Connection>> connections;
  std::vector<pollfd> fds;
  bool drain_requested = false;
  Connection* drain_requester = nullptr;
  std::string scratch;
  char buf[4096];

  while (!drain_requested) {
    fds.clear();
    fds.push_back({listen_fd, POLLIN, 0});
    fds.push_back({signal_pipe[0], POLLIN, 0});
    for (const std::unique_ptr<Connection>& conn : connections) {
      short events = POLLIN;
      if (!conn->outbuf.empty()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
    }
    // Finite timeout so backpressure edges propagate even on a quiet
    // socket (the queue drains on the tenants' own threads).
    const int ready = poll(fds.data(), fds.size(), 50);
    if (ready < 0 && errno != EINTR) break;

    if ((fds[1].revents & POLLIN) != 0) {
      while (read(signal_pipe[0], buf, sizeof(buf)) > 0) {
      }
      drain_requested = true;
      break;
    }

    if ((fds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = accept(listen_fd, nullptr, nullptr);
        if (fd < 0) break;
        if (connections.size() >= options.max_connections) {
          close(fd);
          continue;
        }
        SetNonBlocking(fd);
        auto conn = std::make_unique<Connection>(core);
        conn->fd = fd;
        connections.push_back(std::move(conn));
      }
    }

    for (std::size_t c = 0; c < connections.size(); ++c) {
      Connection& conn = *connections[c];
      const pollfd& pfd = fds[2 + c];
      if ((pfd.revents & POLLOUT) != 0) FlushOutbuf(conn);
      if (conn.closing) continue;
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        const ssize_t n = recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          try {
            conn.reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
            while (const std::optional<Frame> frame = conn.reader.Next()) {
              if (!conn.session.HandleFrame(*frame, conn.outbuf)) {
                conn.closing = true;
                break;
              }
              if (conn.session.WantsDrain()) {
                drain_requested = true;
                drain_requester = &conn;
                break;
              }
            }
          } catch (const FramingError& e) {
            scratch.clear();
            EncodeErrorReply(e.what(), scratch);
            AppendFrame(kFrameError, scratch, conn.outbuf);
            conn.closing = true;
          }
          if (conn.closing || drain_requested) break;
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        conn.closing = true;  // EOF or hard error
        break;
      }
      if (drain_requested) break;
    }

    // Unsolicited backpressure edges for bound sessions, plus
    // slow-consumer enforcement: a reader that does not keep up may not
    // grow the daemon's memory.
    for (const std::unique_ptr<Connection>& conn : connections) {
      if (conn->closing) continue;
      TenantRuntime* tenant = conn->session.Tenant();
      if (tenant != nullptr) {
        const bool engaged = tenant->BackpressureEngaged();
        if (engaged != conn->last_backpressure) {
          conn->last_backpressure = engaged;
          BackpressureEvent event;
          event.engaged = engaged;
          event.queue_rows = tenant->Status().queue_rows;
          scratch.clear();
          EncodeBackpressureEvent(event, scratch);
          AppendFrame(kFrameBackpressure, scratch, conn->outbuf);
        }
      }
      FlushOutbuf(*conn);
      if (conn->outbuf.size() > options.output_buffer_limit) {
        std::printf("serve: disconnecting slow consumer (%zu buffered"
                    " bytes)\n",
                    conn->outbuf.size());
        conn->outbuf.clear();
        conn->closing = true;
      }
    }
    for (std::size_t c = connections.size(); c-- > 0;) {
      Connection& conn = *connections[c];
      if (!conn.closing) continue;
      FlushOutbuf(conn);
      close(conn.fd);
      connections.erase(connections.begin() +
                        static_cast<std::ptrdiff_t>(c));
    }
  }

  // Drain: stop intake, finish every queue, checkpoint every tenant.
  close(listen_fd);
  const DrainedReply drained = core.Drain();
  for (const DrainedTenant& tenant : drained.tenants) {
    std::printf("tenant %s: drained processed=%llu checkpoint=%s\n",
                tenant.name.c_str(),
                static_cast<unsigned long long>(tenant.processed),
                CheckpointStateName(tenant.checkpoint));
  }
  if (drain_requester != nullptr) {
    scratch.clear();
    EncodeDrainedReply(drained, scratch);
    AppendFrame(kFrameDrained, scratch, drain_requester->outbuf);
    // Best-effort blocking flush so the requester sees the reply.
    const int flags = fcntl(drain_requester->fd, F_GETFL, 0);
    if (flags >= 0) {
      fcntl(drain_requester->fd, F_SETFL, flags & ~O_NONBLOCK);
    }
    FlushOutbuf(*drain_requester);
  }
  for (const std::unique_ptr<Connection>& conn : connections) {
    close(conn->fd);
  }
  close(signal_pipe[0]);
  close(signal_pipe[1]);
  g_signal_pipe_write = -1;
  unlink(options.socket_path.c_str());
  std::printf("serve: drained\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace pmcorr
