// ServeCore + ServeSession: the daemon's tenant registry and its
// per-connection protocol state machine, kept free of any socket code
// so tests drive the full protocol surface (hello, sample, queries,
// shedding, drain) as plain function calls. The socket/poll loop lives
// in serve/daemon.cpp and only moves bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "io/framing.h"
#include "serve/protocol.h"
#include "serve/tenant.h"

namespace pmcorr {

/// The daemon's tenants. AddTenant is a startup-only serial-section
/// call; after serving begins the registry is immutable (lookup only).
class ServeCore {
 public:
  /// `state_on_disk` as for the TenantRuntime constructor.
  std::size_t AddTenant(TenantConfig config,
                        std::unique_ptr<SystemMonitor> monitor,
                        bool state_on_disk = false);

  TenantRuntime* FindTenant(std::string_view name);
  TenantRuntime& Tenant(std::size_t i) { return *tenants_.at(i); }
  std::size_t TenantCount() const { return tenants_.size(); }

  /// Drains every tenant in registration order and reports each one's
  /// final state — the SIGTERM/kFrameDrain path.
  DrainedReply Drain();

 private:
  std::vector<std::unique_ptr<TenantRuntime>> tenants_;
};

/// One connection's protocol state. HandleFrame consumes a decoded
/// frame and appends any reply frames to `out`; returning false means
/// the connection must be closed (protocol violation — one kFrameError
/// has been queued). Sessions are single-threaded per connection.
class ServeSession {
 public:
  explicit ServeSession(ServeCore& core) : core_(&core) {}

  bool HandleFrame(const Frame& frame, std::string& out);

  /// The client asked for a daemon-wide drain; the daemon loop performs
  /// it (the reply must cover every tenant, not just this session's).
  bool WantsDrain() const { return wants_drain_; }

  /// Bound tenant index, or -1 before a successful hello.
  int TenantIndex() const { return tenant_index_; }
  TenantRuntime* Tenant() { return tenant_; }

 private:
  bool Error(std::string_view message, std::string& out);
  bool HandleHello(const Frame& frame, std::string& out);
  bool HandleSample(const Frame& frame, std::string& out);
  bool HandleQuery(const Frame& frame, std::string& out);
  void AnswerStatus(std::string& out);
  void AnswerSummary(std::string& out);
  void AnswerDrilldown(std::uint32_t measurement, std::string& out);

  ServeCore* core_;
  TenantRuntime* tenant_ = nullptr;
  int tenant_index_ = -1;
  bool wants_drain_ = false;
  SampleRow row_scratch_;
  std::string payload_scratch_;
};

}  // namespace pmcorr
