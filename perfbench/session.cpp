// The daemon session: launch `pmcorr serve` as a child process, drive it
// from this single thread over its unix socket with the program's own
// framing and protocol codecs, and record what a client observes.
//
// Publication is observed by polling kStatus: the tenant bumps its
// `processed` counter only after a row's snapshot is published, so the
// first status reply whose count covers row i dates that row's
// publication. One status query is in flight at a time and the next
// goes out kStatusPollInterval after the reply, so a publication time
// is late by at most one interval plus one round trip.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "io/framing.h"

namespace perfbench {

using namespace pmcorr;

namespace {

constexpr auto kStatusPollInterval = std::chrono::microseconds(500);

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// One `pmcorr serve` child process. The destructor kills and reaps a
/// daemon that is still running, so no path leaves one behind.
class Daemon {
 public:
  Daemon(const std::string& pmcorr, const std::vector<std::string>& args) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(pmcorr.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    const Clock::time_point start = Clock::now();
    pid_ = fork();
    if (pid_ < 0) {
      close(fds[0]);
      close(fds[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      dup2(fds[1], STDOUT_FILENO);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    // The daemon flushes "serve: listening" once the socket is bound
    // and every tenant is trained or restored.
    while (log_.find("serve: listening") == std::string::npos) {
      if (!ReadSome()) {
        const std::string log = log_;
        Reap();
        throw std::runtime_error("daemon exited before listening:\n" + log);
      }
    }
    listen_s_ = SecondsBetween(start, Clock::now());
  }

  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
    if (out_fd_ >= 0) close(out_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  double ListenSeconds() const { return listen_s_; }

  /// Waits for the daemon to exit and returns its peak resident set in
  /// MiB, from the rusage of the reaped child.
  double Reap() {
    while (ReadSome()) {
    }
    int status = 0;
    rusage usage{};
    const pid_t pid = pid_;
    pid_ = -1;
    if (wait4(pid, &status, 0, &usage) != pid) {
      throw std::runtime_error("wait4 failed");
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("daemon exited abnormally:\n" + log_);
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  bool ReadSome() {
    char buf[4096];
    for (;;) {
      const ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n > 0) {
        log_.append(buf, static_cast<std::size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string log_;
  double listen_s_ = 0.0;
};

/// A client connection: non-blocking socket, outgoing buffer, incoming
/// frame reader. Backpressure edges are absorbed into `backpressure`.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      close(fd_);
      throw std::runtime_error("cannot connect to " + path);
    }
    const int flags = fcntl(fd_, F_GETFL, 0);
    fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  }
  ~Conn() { close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int Fd() const { return fd_; }
  bool WantsWrite() const { return off_ < out_.size(); }

  void Queue(std::uint8_t type, const std::string& payload) {
    AppendFrame(type, payload, out_);
  }

  void Flush() {
    while (off_ < out_.size()) {
      const ssize_t n = send(fd_, out_.data() + off_, out_.size() - off_,
                             MSG_NOSIGNAL);
      if (n > 0) {
        off_ += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("send failed: daemon gone");
    }
    if (off_ == out_.size()) {
      out_.clear();
      off_ = 0;
    }
  }

  /// Reads whatever has arrived, noting when the daemon closed.
  void ReadAvailable() {
    char buf[65536];
    while (!closed_) {
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        reader_.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      closed_ = true;
    }
  }

  /// Throws once the daemon has closed and every frame it sent is read.
  void ExpectOpen() {
    if (closed_ && reader_.BufferedBytes() == 0) {
      throw std::runtime_error("connection closed by the daemon");
    }
  }

  /// Next reply frame; backpressure edges are consumed on the way and an
  /// error frame throws.
  std::optional<Frame> Next() {
    while (std::optional<Frame> frame = reader_.Next()) {
      if (frame->type == kFrameBackpressure) {
        const BackpressureEvent event = DecodeBackpressureEvent(frame->payload);
        if (event.engaged && !backpressure) ++raises;
        backpressure = event.engaged;
        continue;
      }
      if (frame->type == kFrameError) {
        throw std::runtime_error("daemon error: " +
                                 DecodeErrorReply(frame->payload));
      }
      return frame;
    }
    return std::nullopt;
  }

  bool backpressure = false;
  std::uint64_t raises = 0;

 private:
  int fd_ = -1;
  bool closed_ = false;
  std::string out_;
  std::size_t off_ = 0;
  FrameReader reader_;
};

/// Waits up to `timeout` for any connection to become readable (or
/// writable, when it has bytes queued), then flushes and reads.
void PollOnce(const std::vector<Conn*>& conns, Clock::duration timeout) {
  std::vector<pollfd> fds;
  for (Conn* c : conns) {
    short events = POLLIN;
    if (c->WantsWrite()) events |= POLLOUT;
    fds.push_back({c->Fd(), events, 0});
  }
  const auto ns = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count());
  timespec ts{static_cast<time_t>(ns / 1000000000),
              static_cast<long>(ns % 1000000000)};
  if (ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
    throw std::runtime_error("ppoll failed");
  }
  for (std::size_t i = 0; i < conns.size(); ++i) {
    if ((fds[i].revents & POLLOUT) != 0) conns[i]->Flush();
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      conns[i]->ReadAvailable();
    }
  }
}

/// Blocking request: sends one frame and returns the reply of type
/// `want`.
Frame Request(Conn& conn, std::uint8_t type, const std::string& payload,
              std::uint8_t want) {
  conn.Queue(type, payload);
  conn.Flush();
  for (;;) {
    if (std::optional<Frame> frame = conn.Next()) {
      if (frame->type != want) {
        throw std::runtime_error("unexpected reply frame type");
      }
      return std::move(*frame);
    }
    conn.ExpectOpen();
    PollOnce({&conn}, std::chrono::milliseconds(100));
  }
}

std::string QueryPayload(QueryKind kind, std::uint32_t arg = 0) {
  QueryRequest q;
  q.kind = kind;
  q.arg = arg;
  std::string payload;
  EncodeQueryRequest(q, payload);
  return payload;
}

StatusReply QueryStatus(Conn& conn) {
  return DecodeStatusReply(
      Request(conn, kFrameQuery, QueryPayload(QueryKind::kStatus), kFrameStatus)
          .payload);
}

void Hello(Conn& conn, const TenantInput& tenant) {
  HelloRequest hello;
  hello.tenant = tenant.name;
  std::string payload;
  EncodeHelloRequest(hello, payload);
  const HelloReply reply =
      DecodeHelloReply(Request(conn, kFrameHello, payload, kFrameHelloOk).payload);
  if (reply.measurement_count != tenant.frame.MeasurementCount()) {
    throw std::runtime_error("tenant width does not match its trace");
  }
}

/// One summary plus one drill-down per measurement, reassembled into
/// the published snapshot (callers make sure it is not moving).
PublishedView FetchView(Conn& conn, std::size_t measurements) {
  PublishedView view;
  const SummaryReply summary = DecodeSummaryReply(
      Request(conn, kFrameQuery, QueryPayload(QueryKind::kSummary),
              kFrameSummary)
          .payload);
  view.sample = summary.sample;
  view.q = summary.system_score;
  view.qa = summary.measurement_scores;
  view.alarmed = summary.alarmed_pairs;
  for (std::size_t m = 0; m < measurements; ++m) {
    view.drilldowns.push_back(DecodeDrilldownReply(
        Request(conn, kFrameQuery,
                QueryPayload(QueryKind::kDrilldown,
                             static_cast<std::uint32_t>(m)),
                kFrameDrilldown)
            .payload));
  }
  std::size_t pairs = 0;
  for (const DrilldownReply& d : view.drilldowns) {
    for (const DrilldownPair& p : d.pairs) {
      pairs = std::max<std::size_t>(pairs, p.pair_index + 1);
    }
  }
  view.pair_scores.assign(pairs, std::nullopt);
  view.pair_alarmed.assign(pairs, 0);
  for (const DrilldownReply& d : view.drilldowns) {
    for (const DrilldownPair& p : d.pairs) {
      if (p.has_score) view.pair_scores[p.pair_index] = p.score;
      view.pair_alarmed[p.pair_index] = p.alarmed ? 1 : 0;
    }
  }
  return view;
}

/// Per-tenant state of the streaming phase.
struct Stream {
  const TenantInput* tenant = nullptr;
  const std::vector<SampleRow>* rows = nullptr;
  Conn* conn = nullptr;
  BlockObservation* obs = nullptr;
  std::size_t next = 0;       // next row to send
  std::size_t published = 0;  // rows seen published
  std::vector<Clock::time_point> due, done;
  struct Pending {
    std::uint8_t want;
    Clock::time_point sent;
  };
  std::deque<Pending> pending;
  bool status_out = false;
  Clock::time_point next_poll;
  std::uint32_t drilldowns = 0;
};

std::vector<std::string> DaemonArgs(const Workload& w) {
  std::vector<std::string> args = {
      "serve",          "--socket",
      "s.sock",         "--threads",
      "1",              "--partners",
      std::to_string(w.tenants.front().partners),
      "--queue-budget", std::to_string(kQueueBudget),
      "--checkpoint-dir", "ck"};
  if (w.checkpoint_every > 0) {
    args.push_back("--checkpoint-every");
    args.push_back(std::to_string(w.checkpoint_every));
  }
  for (const TenantInput& t : w.tenants) {
    if (t.partners != w.tenants.front().partners) {
      throw std::logic_error("tenants of one daemon share --partners");
    }
    args.push_back("--tenant");
    args.push_back(t.name + "=" + t.CsvPath() + ":" +
                   std::to_string(t.train_days));
  }
  return args;
}

/// Samples pooled over the blocks of a run, and each block's rate.
struct Pooled {
  std::vector<double> publish_ms, query_ms, block_rates;
};

/// Streams rows [1, n) of every tenant's block in a closed loop and
/// records publication and query latencies: rows go out as fast as the
/// backpressure edges and the queue budget allow, so a row is due when
/// it is sent. A summary query follows every query_every-th row, a
/// drill-down the row half way between.
void StreamRows(const Workload& w, std::vector<Stream>& streams,
                Pooled& pooled) {
  const Clock::time_point start = Clock::now();
  for (Stream& s : streams) {
    const std::size_t n = s.rows->size();
    s.next = 1;
    s.published = 1;
    s.due.assign(n, start);
    s.done.assign(n, start);
    s.next_poll = start;
  }
  std::vector<Conn*> conns;
  for (Stream& s : streams) conns.push_back(s.conn);
  std::string payload;
  const std::size_t half = w.query_every / 2;

  for (;;) {
    bool finished = true;
    Clock::time_point now = Clock::now();
    Clock::time_point wake = now + std::chrono::milliseconds(50);
    for (Stream& s : streams) {
      const std::vector<SampleRow>& rows = *s.rows;
      while (s.next < rows.size()) {
        if (s.conn->backpressure) break;
        if (s.next - s.published >= kQueueBudget) break;
        payload.clear();
        EncodeSampleRow(rows[s.next], payload);
        s.conn->Queue(kFrameSample, payload);
        s.due[s.next] = now;
        ++s.next;
        if (s.next % w.query_every == 0) {
          s.conn->Queue(kFrameQuery, QueryPayload(QueryKind::kSummary));
          s.pending.push_back({kFrameSummary, now});
        } else if (s.next % w.query_every == half) {
          const auto m = static_cast<std::uint32_t>(
              s.drilldowns++ % s.tenant->frame.MeasurementCount());
          s.conn->Queue(kFrameQuery, QueryPayload(QueryKind::kDrilldown, m));
          s.pending.push_back({kFrameDrilldown, now});
        }
      }
      if (!s.status_out && s.published < s.next && now >= s.next_poll) {
        s.conn->Queue(kFrameQuery, QueryPayload(QueryKind::kStatus));
        s.pending.push_back({kFrameStatus, now});
        s.status_out = true;
      }
      s.conn->Flush();
      if (s.published < rows.size() || !s.pending.empty()) finished = false;
      if (!s.status_out && s.published < s.next) {
        wake = std::min(wake, s.next_poll);
      }
    }
    if (finished) break;

    // While a query is out, spin instead of sleeping: a query's round
    // trip is tens of microseconds, about what waking an idle vCPU costs.
    bool query_out = false;
    for (const Stream& s : streams) {
      for (const Stream::Pending& p : s.pending) {
        query_out = query_out || p.want != kFrameStatus;
      }
    }
    PollOnce(conns, query_out ? Clock::duration::zero() : wake - now);
    now = Clock::now();
    for (Stream& s : streams) {
      s.conn->ExpectOpen();
      while (std::optional<Frame> frame = s.conn->Next()) {
        if (s.pending.empty() || s.pending.front().want != frame->type) {
          throw std::runtime_error("reply out of order");
        }
        const Stream::Pending sent = s.pending.front();
        s.pending.pop_front();
        if (frame->type == kFrameStatus) {
          const StatusReply status = DecodeStatusReply(frame->payload);
          const std::size_t upto =
              std::min<std::size_t>(s.next, status.processed);
          for (; s.published < upto; ++s.published) s.done[s.published] = now;
          s.status_out = false;
          s.next_poll = now + kStatusPollInterval;
          continue;
        }
        QueryRecord record;
        record.latency_ms = Ms(now - sent.sent);
        if (frame->type == kFrameSummary) {
          record.summary = DecodeSummaryReply(frame->payload);
        } else {
          record.drilldown = true;
          record.drill = DecodeDrilldownReply(frame->payload);
        }
        pooled.query_ms.push_back(record.latency_ms);
        s.obs->queries.push_back(std::move(record));
      }
    }
  }

  Clock::time_point last = start;
  std::vector<double> publish_ms;
  for (Stream& s : streams) {
    for (std::size_t i = 1; i < s.done.size(); ++i) {
      publish_ms.push_back(Ms(s.done[i] - s.due[i]));
      last = std::max(last, s.done[i]);
    }
  }
  pooled.block_rates.push_back(static_cast<double>(publish_ms.size()) /
                               SecondsBetween(start, last));
  pooled.publish_ms.insert(pooled.publish_ms.end(), publish_ms.begin(),
                           publish_ms.end());
}

/// Sends row 0 of the block alone and reads its published snapshot back
/// in full.
PublishedView FirstRow(Conn& conn, const TenantInput& tenant,
                       const std::vector<SampleRow>& rows) {
  std::string payload;
  EncodeSampleRow(rows.front(), payload);
  conn.Queue(kFrameSample, payload);
  while (QueryStatus(conn).processed < 1) {
    std::this_thread::sleep_for(kStatusPollInterval);
  }
  return FetchView(conn, tenant.frame.MeasurementCount());
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Mean of the faster half of a run's samples: the lowest times, or the
/// highest rates, with the middle sample counted when there is an odd
/// number. The shared host only ever adds time to a phase: in every run
/// the fastest drains sit within a few percent of each other, while slow
/// spells of 10-30 s add up to 70% to the rest. A median or mean of a
/// run's samples follows how much of the run fell in such spells; the
/// faster half follows the program's own cost and still averages
/// several samples.
double FasterHalfMean(std::vector<double> v, bool higher_is_faster) {
  std::sort(v.begin(), v.end());
  if (higher_is_faster) std::reverse(v.begin(), v.end());
  v.resize((v.size() + 1) / 2);
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

SessionResult RunSession(const Workload& w, const std::string& pmcorr) {
  SessionResult result;
  result.tenants.resize(w.tenants.size());
  for (TenantObservation& t : result.tenants) t.blocks.resize(w.blocks);
  const std::vector<std::string> args = DaemonArgs(w);
  Pooled pooled;
  std::vector<double> drains, restarts;

  for (std::size_t b = 0; b < w.blocks; ++b) {
    // Block 0 trains every tenant from its trace; later blocks restore
    // from the checkpoint the previous block sealed.
    Daemon daemon(pmcorr, args);
    (b == 0 ? result.setup_s : restarts.emplace_back()) =
        daemon.ListenSeconds();
    std::vector<std::unique_ptr<Conn>> conns;
    std::vector<Stream> streams(w.tenants.size());
    for (std::size_t t = 0; t < w.tenants.size(); ++t) {
      const TenantInput& tenant = w.tenants[t];
      BlockObservation& obs = result.tenants[t].blocks[b];
      conns.push_back(std::make_unique<Conn>("s.sock"));
      Hello(*conns[t], tenant);
      obs.first_view = FirstRow(*conns[t], tenant, tenant.blocks[b]);
      streams[t] = Stream{};
      streams[t].tenant = &tenant;
      streams[t].rows = &tenant.blocks[b];
      streams[t].conn = conns[t].get();
      streams[t].obs = &obs;
    }
    StreamRows(w, streams, pooled);

    // Every row is published: the snapshot is still, so the final
    // status and the full published view can be read.
    for (std::size_t t = 0; t < w.tenants.size(); ++t) {
      BlockObservation& obs = result.tenants[t].blocks[b];
      obs.rows_sent = streams[t].next;
      obs.final_status = QueryStatus(*conns[t]);
      obs.final_view = FetchView(*conns[t], w.tenants[t].frame.MeasurementCount());
      result.max_queue_rows =
          std::max(result.max_queue_rows, obs.final_status.max_queue_rows);
      result.checkpoints += obs.final_status.checkpoints;
      result.backpressure_raises += conns[t]->raises;
    }

    const Clock::time_point drain_start = Clock::now();
    const DrainedReply drained = DecodeDrainedReply(
        Request(*conns[0], kFrameDrain, "", kFrameDrained).payload);
    drains.push_back(SecondsBetween(drain_start, Clock::now()));
    conns.clear();
    result.rss_peak_mib = std::max(result.rss_peak_mib, daemon.Reap());

    std::uint64_t sealed = 0;
    for (std::size_t t = 0; t < w.tenants.size(); ++t) {
      const TenantInput& tenant = w.tenants[t];
      for (const DrainedTenant& d : drained.tenants) {
        if (d.name == tenant.name) result.tenants[t].blocks[b].drained = d;
      }
      const std::uint64_t bytes =
          std::filesystem::file_size(tenant.CheckpointPath());
      sealed += bytes;
      if (b == 0) result.tenants[t].first_seal_bytes = bytes;
      // Keep this seal past the next block's rotation: the verifier
      // loads it to check the block restored from it.
      if (b + 1 < w.blocks) {
        std::filesystem::create_hard_link(tenant.CheckpointPath(),
                                          tenant.SealPath(b));
      }
    }
    result.checkpoint_mib = static_cast<double>(sealed) / (1024.0 * 1024.0);
  }

  auto log_samples = [](const char* name, const std::vector<double>& v) {
    std::fprintf(stderr, "serve_bench: %s samples:", name);
    for (const double x : v) std::fprintf(stderr, " %.3f", x);
    std::fprintf(stderr, "\n");
  };
  log_samples("ingest rows/s", pooled.block_rates);
  log_samples("drain s", drains);
  log_samples("restart s", restarts);
  result.ingest_rows_per_s = FasterHalfMean(pooled.block_rates, true);
  result.drain_s = FasterHalfMean(drains, false);
  result.restart_s = FasterHalfMean(restarts, false);
  result.publish_p50_ms = Quantile(pooled.publish_ms, 0.50);
  result.publish_p99_ms = Quantile(pooled.publish_ms, 0.99);
  result.publish_samples = pooled.publish_ms.size();
  result.query_p50_ms = Median(pooled.query_ms);
  return result;
}

}  // namespace perfbench
