#include "rpc/worker_control.hpp"

#include <utility>

namespace atlas::rpc {

namespace {

RemoteBackendOptions base_options(const RemoteWorkerOptions& options) {
  RemoteBackendOptions backend;
  backend.host = options.host;
  backend.port = options.port;
  backend.timeout_ms = options.timeout_ms;
  backend.control_timeout_ms = options.control_timeout_ms;
  backend.max_retries = options.max_retries;
  backend.transport_factory = options.transport_factory;
  return backend;
}

}  // namespace

RemoteWorkerControl::RemoteWorkerControl(RemoteWorkerOptions options)
    : options_(std::move(options)),
      address_(options_.host + ":" + std::to_string(options_.port)) {
  RemoteBackendOptions control = base_options(options_);
  control.name = "control@" + address_;
  control_ = std::make_shared<RemoteBackend>(std::move(control));
}

std::shared_ptr<const env::EnvBackend> RemoteWorkerControl::make_backend(
    const env::WorkerBackendInfo& info, env::BackendId remote_backend) {
  RemoteBackendOptions backend = base_options(options_);
  backend.name = info.name + "@" + address_;
  backend.kind = info.kind;
  backend.remote_backend = remote_backend;
  backend.accepts_sim_params = info.accepts_sim_params;
  return std::make_shared<RemoteBackend>(std::move(backend));
}

}  // namespace atlas::rpc
